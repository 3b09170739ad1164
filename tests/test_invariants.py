"""Invariant-candidate engine tests, end to end through the solver."""

import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarc.abstraction import abstract_program
from invarc.cli import build_pipeline, check_oracle
from invarc.diagnostics import EncodeError, UnknownSymbol
from invarc.encoder import INT, MEM, SolverScript, Term, definition, \
    encode_program, leaves
from invarc.frontend import parse_translation_unit
from invarc.frontend.classify import classify_constructs
from invarc.invariants import (
    Candidate, build_candidates, combine_verdicts, detect_invariants,
    emit_query, enumerate_candidates,
)
from invarc.normalize import to_simple_assignments
from invarc.pollution import analyze_pollution
from invarc.refute import refute_queries

from conftest import DOCS, ENTRIES, corpus_entry, corpus_source
from genprog import fp_global_c, loopy_c
from test_interp import COND_CALL


def build(src, entry):
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, entry)
    _, _, polluted = analyze_pollution(prog, report)
    ab = abstract_program(prog, polluted)
    return ab, encode_program(ab.program, ab.havocked)


def verdict_map(report):
    return {(c.variable, c.kind): c.verdict for c in report.candidates}


def test_combine_and_interpret():
    assert combine_verdicts(["unsat"]) == "invariant"
    for v in ("sat", "unknown", "timeout", "error"):
        assert combine_verdicts([v]) == "unknown"
    assert combine_verdicts(["unsat", "unsat"]) == "invariant"
    assert combine_verdicts(["unsat", "sat"]) == "unknown"


def test_enumeration_excludes_temps_and_havocked():
    ab, enc = build(corpus_source("sequential_scan.c"), "SequentialScan")
    cands = enumerate_candidates(ab, enc)
    names = {c.variable for c in cands}
    assert not any(n.startswith("$") for n in names)
    assert not (names & set(ab.havocked))
    assert "i" in names


def test_identical_symbols_short_circuit():
    s = SolverScript()
    v = s.declare("v@1", INT)
    c = Candidate(variable="v", kind="entry-exit", pairs=[(v, v)])
    assert emit_query(c, s, "q0$v$entry-exit") == []
    assert s.queries == []


def test_duplicate_query_name_rejected():
    s = SolverScript()
    s.add_query("q", "true")
    with pytest.raises(EncodeError):
        s.add_query("q", "false")


def test_unknown_symbol_rejected():
    s = SolverScript()
    c = Candidate(variable="v", kind="entry-exit",
                  pairs=[(s.declare("v@1", INT), Term("v@2", (), INT))])
    with pytest.raises(UnknownSymbol):
        emit_query(c, s, "q0$v$entry-exit")


def test_foo_verdicts(report_cache):
    rep = report_cache("foo.c")
    vm = verdict_map(rep)
    assert vm[("i", "entry-exit")] == "invariant"
    assert vm[("i", "loop")] == "invariant"
    assert vm[("i", "head-bend")] == "invariant"
    assert vm[("cnt", "loop")] == "unknown"
    assert vm[("cnt", "head-bend")] == "unknown"
    assert not any(v in ("c1", "mp") for v, _ in vm)
    assert set(rep.polluted) == {"c1", "mp"}


def test_unmodified_global_is_invariant(no_solver):
    # g keeps one symbol from entry to exit: proved with no solver call.
    src = ("int g;\n"
           "int f(int a) { int r = g + a; return r; }")
    ab, enc = build(src, "f")
    rep = detect_invariants(ab, enc, lambda: no_solver)
    assert verdict_map(rep)[("g", "entry-exit")] == "invariant"


def test_modified_global_not_invariant(detect):
    src = ("int g;\n"
           "int f(int a) { g = g + a; return g; }")
    ab, enc = build(src, "f")
    rep = detect(ab, enc)
    assert verdict_map(rep)[("g", "entry-exit")] == "unknown"


def test_loop_induction_false_negative(detect):
    """A variable restored only on the final iteration is a true
    entry-exit invariant but the one-iteration loop encoding cannot
    prove it; the engine must answer unknown, never a wrong proof."""
    src = ("int f(int n) {\n"
           "  int keep = 5;\n"
           "  int i = 0;\n"
           "  while (i < n) {\n"
           "    keep = 0;\n"
           "    i = i + 1;\n"
           "    if (i == n) { keep = 5; }\n"
           "  }\n"
           "  return keep;\n"
           "}")
    ab, enc = build(src, "f")
    rep = detect(ab, enc)
    vm = verdict_map(rep)
    assert vm[("keep", "loop")] == "unknown"
    assert vm[("i", "loop")] == "unknown"


def test_report_json_schema(report_cache):
    schema = json.loads((DOCS / "report-schema.json").read_text())
    for name in ("foo.c", "sum.c", "get_row_length.c"):
        data = json.loads(report_cache(name).to_json())
        jsonschema.validate(data, schema)
        assert data["version"] == 1


def test_report_text_table(report_cache):
    text = report_cache("foo.c").to_text()
    assert "VARIABLE" in text and "invariant" in text and "unknown" in text


def test_empty_candidate_list(no_solver):
    # Every variable polluted: no candidates, no solver calls, valid report.
    src = "int f() { int x = mystery(); return x; }"
    ab, enc = build(src, "f")
    rep = detect_invariants(ab, enc, lambda: no_solver)
    assert rep.candidates == []
    assert "x" in rep.polluted


def test_a_polluted_renamed_parameter_is_listed(no_solver):
    """The parameter `x`, which the normalizer renames `$x_1` because a
    global has its name, is a program variable: polluted, it is listed
    with `y`, as it would be a candidate when clean."""
    src = "int x; int f(int x) { int y; y = lib(x); x = y + 1; return x; }"
    ab, enc = build(src, "f")
    rep = detect_invariants(ab, enc, lambda: no_solver)
    assert rep.polluted == ["$x_1", "y"]
    assert "excluded as polluted: $x_1, y" in rep.to_text()


# --- loop candidates settled without a query --------------------------------

def modified(lr):
    """The names a loop record's loop writes: havocked at its head."""
    return {v for v in lr.pre if lr.head[v] != lr.pre[v]}


def loop_programs():
    for name in sorted(ENTRIES):
        yield name, corpus_source(name), corpus_entry(name)
    for seed in range(20):
        yield f"loopy-{seed}", loopy_c(seed), "gen"
        yield f"fp-global-{seed}", fp_global_c(seed), "gen"


def test_loop_heads_of_modified_variables_are_undefined():
    """Why a settled `loop` candidate is unknown: each assertion defines
    one symbol, and one that reads a modified variable's loop head
    defines a symbol declared after the head, so the head is free."""
    heads = 0
    for label, src, entry in loop_programs():
        *_, enc = build_pipeline(src, entry)
        main = enc.script.main
        order = {t.op: i for i, t in enumerate(main) if not t.args}
        defs = []
        for t in main:
            if not t.args:
                continue
            sym = definition(t)[0].op
            assert sym in order, (label, t)
            defs.append((sym, set(leaves(t))))
        for lr in enc.loops:
            for v in modified(lr):
                head = lr.head[v].text
                heads += 1
                for defined, used in defs:
                    assert defined != head, (label, v)
                    if head in used:
                        assert order[defined] > order[head], (label, v)
    assert heads > 50


def test_settled_loop_candidates_are_refuted_by_their_pre_head_query():
    settled = 0
    for label, src, entry in loop_programs():
        *_, ab, enc = build_pipeline(src, entry)
        loops = {lr.loop_id: lr for lr in enc.loops}
        names = set()
        for c in enumerate_candidates(ab, enc):
            if c.kind != "loop" or c.pairs:
                continue
            lr = loops[c.loop_id]
            assert c.verdict == "unknown" and c.variable in modified(lr)
            name = f"s{len(names)}"
            enc.script.add_query(name, f"(not (= {lr.pre[c.variable].text}"
                                       f" {lr.head[c.variable].text}))")
            names.add(name)
        assert set(refute_queries(enc.script)) == names, label
        settled += len(names)
    assert settled > 50


def test_loop_body_end_precedes_the_conditions_calls():
    """The body-end symbol is taken before the calls hoisted out of the
    condition run again: across the body `g` falls by one, so its
    head-bend query has a model."""
    *_, ab, enc = build_pipeline(COND_CALL, "f")
    (cand,) = [c for c in build_candidates(ab, enc)
               if (c.variable, c.kind) == ("g", "head-bend")]
    names = emit_query(cand, enc.script, "g")
    assert names and set(refute_queries(enc.script)) >= set(names)


# (variable, kind, loop, verdict) per candidate, without a solver
PINNED = {
    "foo.c": [
        ("i", "entry-exit", None, "invariant"), ("i", "loop", 1, "invariant"),
        ("i", "head-bend", 1, "invariant"), ("cnt", "loop", 1, "unknown"),
        ("cnt", "head-bend", 1, "unknown")],
    "sum.c": [
        ("sum", "loop", 1, "unknown"), ("sum", "head-bend", 1, "unknown"),
        ("i", "loop", 1, "unknown"), ("i", "head-bend", 1, "unknown")],
    "sequential_scan.c": [
        ("scan_direction", "entry-exit", None, "invariant"),
        ("num_predicates", "entry-exit", None, "invariant"),
        ("scan_direction", "loop", 1, "invariant"),
        ("scan_direction", "head-bend", 1, "invariant"),
        ("num_predicates", "loop", 1, "invariant"),
        ("num_predicates", "head-bend", 1, "invariant"),
        ("column_offset", "loop", 1, "unknown"),
        ("column_offset", "head-bend", 1, "unknown"),
        ("column_type", "loop", 1, "unknown"),
        ("column_type", "head-bend", 1, "unknown"),
        ("i", "loop", 1, "unknown"), ("i", "head-bend", 1, "unknown"),
        ("scan_direction", "loop", 2, "invariant"),
        ("scan_direction", "head-bend", 2, "invariant"),
        ("num_predicates", "loop", 2, "invariant"),
        ("num_predicates", "head-bend", 2, "invariant"),
        ("column_offset", "loop", 2, "invariant"),
        ("column_offset", "head-bend", 2, "invariant"),
        ("column_type", "loop", 2, "invariant"),
        ("column_type", "head-bend", 2, "invariant"),
        ("i", "loop", 2, "unknown"), ("i", "head-bend", 2, "unknown")],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_verdicts_without_a_solver_are_pinned(name):
    *_, ab, enc = build_pipeline(corpus_source(name), corpus_entry(name))
    rep = detect_invariants(ab, enc, lambda: None)
    assert [(c.variable, c.kind, c.loop_id, c.verdict)
            for c in rep.candidates] == PINNED[name]


# --- globals written by function-pointer targets ---------------------------

FP_GLOBAL = ("int g;\n"
             "int setg(int x) { %s return x; }\n"
             "int main(int a) {\n"
             "  int (*fp)(int);\n"
             "  fp = &setg;\n"
             "%s"
             "  return r;\n"
             "}\n")
STRAIGHT = "  int r = fp(a);\n"
LOOP = "  int r = 0;\n  while (r < a) { r = fp(a); }\n"


@pytest.mark.parametrize("write,call", [
    ("g = 5;", STRAIGHT), ("g = 5;", LOOP),
    ("int *p = &g; *p = 5;", STRAIGHT),
], ids=["straight", "loop", "pointer"])
def test_global_written_by_fp_target_is_unknown(write, call):
    *_, ab, enc = build_pipeline(FP_GLOBAL % (write, call), "main")
    rep = detect_invariants(ab, enc, lambda: None)
    kinds = [c.kind for c in rep.candidates if c.variable == "g"]
    assert kinds and all(c.verdict == "unknown"
                         for c in rep.candidates if c.variable == "g")
    assert ("loop" in kinds) == (call == LOOP)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_fp_targets_writing_globals_are_never_refuted(discovered, seed):
    ast, _, prog, _, ab, enc = build_pipeline(fp_global_c(seed), "gen")
    rep = detect_invariants(ab, enc, lambda: discovered[0])
    oracle = check_oracle(ast, prog.entry, enc, rep, (-2, 2))
    assert oracle["violations"] == [], oracle["violations"]


# a loop that writes memory without a store through a plain pointer
LOOPS_WRITING_MEMORY = {
    # assigning an address-taken variable writes its cell
    "address-taken": ("int f(int n) { int x = n; int *p = &x; int i = 0;\n"
                      "  while (i < 2) { x = x + 1; i = i + 1; }\n"
                      "  n = *p; return 0; }\n", "n"),
    # `p[0] = v` through a pointer is a store into memory
    "pointer-index": ("int g;\n"
                      "int f(int n) { int *p = &g; int i = 0;\n"
                      "  while (i < n) { p[0] = g + 1; i = i + 1; }\n"
                      "  return 0; }\n", "g"),
}


@pytest.mark.parametrize("label", sorted(LOOPS_WRITING_MEMORY))
def test_a_loop_that_writes_memory_modifies_it(label):
    """Memory is among the names the loop modifies, so its writes reach
    the exit, and the variable read back from memory after the loop is
    refuted, not proved, to keep its entry value."""
    src, var = LOOPS_WRITING_MEMORY[label]
    *_, ab, enc = build_pipeline(src, "f")
    (lr,) = enc.loops
    assert MEM in modified(lr)
    report = detect_invariants(ab, enc, lambda: None)
    assert not report.undecided
    assert verdict_map(report)[(var, "entry-exit")] == "unknown"
