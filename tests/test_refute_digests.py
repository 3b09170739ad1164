"""Identity guard for the models of the in-process refuter.

`golden/refute_digests.json` holds, for each corpus program and each
program of `DIGEST_GENERATORS`, the sha256 of the models
`refute_queries` finds on its script: the script `test_smt_digests`
pins for a generated program, and the CLI's queries for a corpus one.
The models are hashed as `script_fingerprints` hashes them
(`models_sha`).  The refuter draws from a fixed seed, so a change to
how it evaluates a script that should not change what it finds must
keep every digest.  To record a deliberate change to the models, run
`PYTHONPATH=src python tests/test_refute_digests.py` from the repository
root and commit the new file with the change."""

import json

from conftest import ENTRIES, GOLDEN, corpus_entry, corpus_source, \
    with_queries
from invarc.refute import refute_queries
from script_fingerprints import models_sha
from test_smt_digests import digest_programs

DIGESTS = GOLDEN / "refute_digests.json"


def scripts():
    """(label, script) of every script whose models are pinned."""
    for name in sorted(ENTRIES):
        yield name, with_queries(corpus_source(name), corpus_entry(name))
    for gen, seed, src in digest_programs():
        yield f"{gen}-{seed}", with_queries(src, "gen", result_query=True)


def digests():
    return {label: models_sha(refute_queries(script))
            for label, script in scripts()}


def test_models_match_their_digests():
    assert digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
