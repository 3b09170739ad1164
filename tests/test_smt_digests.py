"""Byte-identity guard for the rendered scripts of generated programs.

`golden/smt_digests.json` holds the sha256 of `SolverScript.render()`,
with the queries the CLI emits, for 20 seeds of each generator in
`DIGEST_GENERATORS`.  The nine SMT goldens cover only the corpus; these
digests extend the check to loops, calls through function pointers and
memory.  Each script also queries the exit symbol of `$result`: where
no parameter is reassigned, the CLI emits no query, and slicing would
keep nothing of the body to pin.  A change to the encoder that should not change any script must
keep every digest.  To record a deliberate change to the scripts, run
`PYTHONPATH=src python tests/test_smt_digests.py` from the repository
root and commit the new file with the change."""

import hashlib
import json

from conftest import GOLDEN, with_queries
from genprog import branchy_c, fp_global_c, loopy_c, mutating_c, \
    straightline_c

DIGESTS = GOLDEN / "smt_digests.json"
DIGEST_GENERATORS = (straightline_c, branchy_c, mutating_c, loopy_c,
                     fp_global_c)
SEEDS = range(20)


def digest_programs():
    """(generator name, seed, source) of every program the digests pin."""
    for gen in DIGEST_GENERATORS:
        for seed in SEEDS:
            yield gen.__name__, seed, gen(seed)


def digests():
    out = {}
    for name, seed, src in digest_programs():
        text = with_queries(src, "gen", result_query=True).render()
        out.setdefault(name, {})[str(seed)] = \
            hashlib.sha256(text.encode()).hexdigest()
    return out


def test_scripts_match_their_digests():
    assert digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
