"""The slice that `encoder.encode_program` encodes, checked against the
reference encoding of the whole abstracted program (`Encoder(...)`),
without a solver.

The two scripts differ only in the numbers of their symbols, which one
global counter hands out, and in the base-address constants of
variables or functions whose address only dropped statements take.
Candidates and their verdicts are the same."""

import json
import re
import sys

import pytest

from invarc.cli import build_pipeline, main
from invarc.invariants import detect_invariants

from conftest import ENTRIES, ROOT, corpus_entry, corpus_source, \
    reference_encoding
from test_smt_digests import digest_programs

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import generate  # noqa: E402

PERFBENCH_PER_WORKLOAD = 10


def slice_programs():
    """(label, source, entry) of the corpus, the digest programs and the
    first programs of each benchmark workload."""
    for name in sorted(ENTRIES):
        yield name, corpus_source(name), corpus_entry(name)
    for gen, seed, src in digest_programs():
        yield f"{gen}-{seed}", src, "gen"
    for workload in ("branch_loop", "call_tree", "straight_line"):
        for p in generate(workload, 1)[:PERFBENCH_PER_WORKLOAD]:
            yield p.name, p.source, p.entry


_BASES = re.compile(r"\(declare-const (base|addr)\$|\(assert \(distinct "
                    r"(0 base|addr)\$")
_NUMBER = re.compile(r"@(\d+)")


def canonical(script):
    """`script` with its symbols renumbered in order of first appearance
    and without the base-address constants and their `distinct`."""
    numbers = {}

    def renumber(m):
        return f"@{numbers.setdefault(m.group(1), len(numbers))}"
    return "\n".join(_NUMBER.sub(renumber, line)
                     for line in script.splitlines()
                     if not _BASES.match(line))


def verdicts(ab, enc):
    """The candidates and verdicts of `enc` without a solver; its script
    then holds the queries the CLI emits."""
    return [(c.variable, c.kind, c.loop_id, c.verdict)
            for c in detect_invariants(ab, enc, lambda: None).candidates]


def test_the_slice_encodes_what_the_whole_program_does():
    kept = whole = 0
    for label, src, entry in slice_programs():
        *_, ab, enc = build_pipeline(src, entry)
        ref = reference_encoding(ab)
        kept, whole = kept + len(enc.points), whole + len(ref.points)
        assert verdicts(ab, enc) == verdicts(ab, ref), label
        assert canonical(enc.script.render()) == \
            canonical(ref.script.render()), label
    assert kept < 0.9 * whole


def test_exit_env_holds_only_what_the_slice_keeps_exact():
    src = ("int g;\n"
           "int f(int a) { int unread = a * 2; g = a + 1; return unread; }")
    *_, enc = build_pipeline(src, "f")
    assert set(enc.exit_env) >= {"a", "g"}
    for dropped in ("$result", "unread"):
        with pytest.raises(KeyError):
            enc.exit_env[dropped]
    assert "unread" in enc.entry_env


def json_report(capsys, tmp_path, src):
    path = tmp_path / "probe.c"
    path.write_text(src)
    assert main([str(path), "--solver", "none", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    return {(c["variable"], tuple(c["points"])): c["verdict"]
            for c in report["candidates"]}


def test_a_store_through_a_pointer_is_in_the_slice(capsys, tmp_path):
    """`g` changes only through `*p`: the store writes memory, which is
    relevant because `g` is, and `g` must not look invariant."""
    src = "int g; int f(int x) { int *p = &g; *p = x; return 0; }"
    verdict = json_report(capsys, tmp_path, src)
    assert verdict[("g", ("function-entry", "function-exit"))] == "unknown"


def test_memory_layout_comes_from_the_whole_program():
    """The only `&x` sits in a statement the slice drops (nothing reads
    `p`); `x` still lives in memory, so the store through `q` in the
    loop may change it, and its loop candidate is not invariant."""
    src = ("int f(int *q, int n) {\n"
           "  int x = 0; int *p = &x; int i = 0;\n"
           "  while (i < n) { *q = i; i = i + 1; }\n"
           "  return 0; }\n")
    *_, ab, enc = build_pipeline(src, "f")
    (addr,) = [s for s in ab.program.walk() if getattr(s, "op", "") == "addr"]
    assert addr.uid not in {uid for uid, _, _ in enc.points}
    (lr,) = enc.loops
    assert lr.head["x"] != lr.pre["x"]
    assert verdicts(ab, enc) == verdicts(ab, reference_encoding(ab))
