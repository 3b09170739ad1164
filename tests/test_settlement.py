"""The execution that settles loop candidates before they become queries
(`invariants.settle_by_execution`), checked without a solver."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarc import interp
from invarc.cli import build_pipeline, check_oracle
from invarc.encoder import nonzero
from invarc.invariants import Candidate, InvariantReport, build_candidates, \
    emit_query, enumerate_candidates, settle_by_execution
from invarc.refute import refute_queries

from conftest import ENTRIES, ROOT, corpus_entry, corpus_source, \
    reference_encoding, with_queries
from genprog import loopy_c
from test_smt_digests import digest_programs

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import branch_loop_c  # noqa: E402


def settled_queries(src, entry):
    """The script of `src` without settlement, with one query per pair
    that the settlement would drop; returns (script, query names)."""
    *_, ab, enc = build_pipeline(src, entry)
    cands = build_candidates(ab, enc)
    pairs = [list(c.pairs) for c in cands]
    names = []
    for c in settle_by_execution(ab.program, enc, cands):
        i = cands.index(c)
        names += emit_query(Candidate(c.variable, c.kind, c.loop_id,
                                      pairs[i]),
                            enc.script, f"q{i}${c.variable}${c.kind}")
    return enc.script, names


def assert_settled_queries_refuted(src, entry):
    script, names = settled_queries(src, entry)
    assert set(refute_queries(script)) >= set(names)
    return len(names)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_settled_queries_are_refuted_loopy(seed):
    assert_settled_queries_refuted(loopy_c(seed), "gen")


@pytest.mark.parametrize("seed", range(10))
def test_settled_queries_are_refuted_branch_loop(seed):
    src = branch_loop_c(seed, 6 + 2 * seed)
    assert assert_settled_queries_refuted(src, "bl") > 0


def script_without(src, entry, settled, result_query):
    """The script of `src` from the candidates built without settlement,
    with the queries of the candidates at the indexes `settled` left
    out; with `result_query`, in the reference encoding, with one more
    query on the exit symbol of `$result`."""
    *_, ab, enc = build_pipeline(src, entry)
    if result_query:
        enc = reference_encoding(ab)
    for i, c in enumerate(build_candidates(ab, enc)):
        if i not in settled:
            emit_query(c, enc.script, f"q{i}${c.variable}${c.kind}")
    if result_query:
        enc.script.add_query("result", nonzero(enc.exit_env["$result"]))
    return enc.script.render()


def pinned_programs():
    """(source, entry, result query) of the goldens and the digests."""
    for name in sorted(ENTRIES):
        yield corpus_source(name), corpus_entry(name), False
    for _, _, src in digest_programs():
        yield src, "gen", True


def test_settlement_only_drops_the_settled_queries():
    """The golden and digest scripts are the scripts without settlement,
    less the settled candidates' queries and what only they read."""
    dropped = 0
    for src, entry, result_query in pinned_programs():
        *_, ab, enc = build_pipeline(src, entry)
        settled = {i for i, c in enumerate(enumerate_candidates(ab, enc))
                   if c.kind == "head-bend" and not c.pairs}
        dropped += len(settled)
        assert with_queries(src, entry, result_query).render() == \
            script_without(src, entry, settled, result_query)
    assert dropped >= 40


def test_the_oracle_breaks_every_settled_candidate():
    """Settlement and `--oracle` judge a candidate by one rule: each
    settled candidate, reported invariant, is an oracle FAIL."""
    settled = 0
    for src, entry, _ in pinned_programs():
        ast, _, prog, _, ab, enc = build_pipeline(src, entry)
        cands = build_candidates(ab, enc)
        for c in settle_by_execution(ab.program, enc, cands):
            c.verdict = "invariant"
            settled += 1
        rep = InvariantReport(prog.entry, cands, [], [])
        lines = check_oracle(ast, prog.entry, enc, rep, (-3, 3))["lines"]
        assert all(": FAIL (" in line for line in lines[1:]), lines
    assert settled >= 40


def test_the_oracle_fails_only_the_candidate_a_run_breaks():
    """`k` is unchanged in the first loop and incremented in the second:
    with both `k` head-bend candidates reported invariant, only the
    second loop's line is a FAIL."""
    src = ("int f(int n) { int i = 0; int k = 0;\n"
           "  while (i < 2) { i = i + 1; }\n"
           "  while (i < 4) { k = k + 1; i = i + 1; }\n"
           "  return k + n; }\n")
    ast, _, prog, _, ab, enc = build_pipeline(src, "f")
    cands = build_candidates(ab, enc)
    reported = [c for c in cands if (c.variable, c.kind) == ("k", "head-bend")]
    assert [c.loop_id for c in reported] == [1, 2]
    for c in reported:
        c.verdict = "invariant"
    oracle = check_oracle(ast, prog.entry, enc,
                          InvariantReport(prog.entry, cands, [], []), (-3, 3))
    assert oracle["lines"][1:] == ["oracle: k head-bend: pass (7 checks)",
                                   "oracle: k head-bend: FAIL (7 checks)"]
    assert {v[0] for v in oracle["violations"]} == {cands.index(reported[1])}


def settlement(src, entry):
    *_, ab, enc = build_pipeline(src, entry)
    return [(c.variable, c.loop_id, c.verdict, c.pairs)
            for c in enumerate_candidates(ab, enc)]


def test_settlement_is_deterministic():
    src = branch_loop_c(3, 12)
    first = settlement(src, "bl")
    random.seed(1)
    assert settlement(src, "bl") == first
    random.seed(2)
    assert settlement(src, "bl") == first


LOOP = ("int f(int n) { int i = 0; int k = 0;\n"
        "  while (i < 3) { k = k + 1; %s i = i + 1; }\n"
        "  return k; }\n")


def open_head_bend(src, entry="f"):
    *_, ab, enc = build_pipeline(src, entry)
    return {c.variable for c in enumerate_candidates(ab, enc)
            if c.kind == "head-bend" and c.pairs}


def test_settled_candidates_have_no_query():
    assert open_head_bend(LOOP % "") == {"n"}


@pytest.fixture
def no_execution(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("the program was executed")
    monkeypatch.setattr(interp, "run_source", refuse)


def test_flagged_program_is_never_executed(no_execution):
    # the library call pollutes `n`, which is then no candidate
    assert open_head_bend(LOOP % "n = abs(n);") == {"i", "k"}


@pytest.mark.parametrize("stmt", ["k = k / (i - 1);",
                                  "while (n == n) { n = n + 1; }"],
                         ids=["trap", "budget"])
def test_failed_execution_settles_nothing(stmt):
    assert open_head_bend(LOOP % stmt) >= {"i", "k"}
