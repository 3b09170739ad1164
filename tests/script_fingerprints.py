"""Fingerprints of the scripts and verdicts of 709 programs, for checking
that a change to the pipeline leaves both byte-identical.

For each of the 9 corpus programs, the 100 `DIGEST_GENERATORS` programs
and the 600 programs of `perfbench` seeds 1 and 41 (100 per workload),
it prints one line: the program's label, the sha256 of
`SolverScript.render()` with the queries the CLI emits, the sha256 of
the parsed unit as `ast_text` prints it and of the normalized program as
`program_text` prints it (the slicer drops most of what the normalizer
inlines, so the script alone cannot show a change there), the sha256 of
the verdict list of `detect_invariants(ab, enc, lambda: None)` (no
solver: in-process refutation only), and the sha256 of the pollution
outputs: the report's `polluted` and `removed_stmts`, the dependency
graph's `dump()`, and each item's kind, span and sorted initial labels
as `analyze_pollution` returns them (the union closure can hide a change
in one item's seeds), and the sha256 of the models `refute_queries` finds,
each array written as its default and its sorted cells.  Run it before
and after a change
and compare the two outputs:

    PYTHONPATH=src python tests/script_fingerprints.py > before.txt
    ... apply the change ...
    PYTHONPATH=src python tests/script_fingerprints.py > after.txt
    diff before.txt after.txt

It is not a test (pytest does not collect it): the fingerprints of one
commit are compared with those of another, not with a committed file.
"""

import hashlib
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
sys.path.insert(0, str(HERE))     # before perfbench, for its conftest

from invarc.cli import build_pipeline  # noqa: E402
from invarc.frontend.ast import ast_text  # noqa: E402
from invarc.invariants import detect_invariants  # noqa: E402
from invarc.normalize import program_text  # noqa: E402
from invarc.pollution import analyze_pollution  # noqa: E402
from invarc.refute import _Array, refute_queries  # noqa: E402

from conftest import ENTRIES, corpus_entry, corpus_source  # noqa: E402
from test_smt_digests import digest_programs  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

PERFBENCH_SEEDS = (1, 41)


def programs():
    """(label, source, entry) of every fingerprinted program."""
    for name in sorted(ENTRIES):
        yield name, corpus_source(name), corpus_entry(name)
    for gen, seed, src in digest_programs():
        yield f"{gen}-{seed}", src, "gen"
    for seed in PERFBENCH_SEEDS:
        for workload in WORKLOADS:
            for p in generate(workload, seed):
                yield f"{p.name}@{seed}", p.source, p.entry


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(value):
    """`value` of a model, with each array as its default and its cells
    in key order, so that equal values print alike."""
    if isinstance(value, _Array):
        return ("array", canonical(value.default),
                sorted((k, canonical(v)) for k, v in value.cells.items()))
    if isinstance(value, tuple):
        return tuple(canonical(v) for v in value)
    return value


def models_sha(models):
    """The sha256 of the models that `refute_queries` returned, each
    with its constants sorted and its values `canonical`."""
    return sha(repr(sorted(
        (name, sorted((c, canonical(v)) for c, v in m.items()))
        for name, m in models.items())))


def fingerprint(source, entry):
    """The sha256 of the rendered script, of the printed unit and
    normalized program, of the verdict list, of the pollution outputs
    and of the refutation models."""
    ast, unit, prog, graph, ab, enc = build_pipeline(source, entry)
    report = detect_invariants(ab, enc, lambda: None)
    verdicts = [(c.variable, c.kind, c.points, c.loop_id, c.verdict)
                for c in report.candidates]
    seeds = [(item.kind, item.span, sorted(labels))
             for item, labels in analyze_pollution(prog, unit)[1].items()]
    pollution = repr((report.polluted,
                      [str(s) for s in report.removed_stmts], seeds)) \
        + graph.dump()
    return (sha(enc.script.render()), sha(ast_text(ast)),
            sha(program_text(prog)), sha(repr(verdicts)), sha(pollution),
            models_sha(refute_queries(enc.script)))


def main():
    for label, source, entry in programs():
        print(label, *fingerprint(source, entry), flush=True)


if __name__ == "__main__":
    main()
