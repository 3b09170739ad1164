"""Normalizer tests: inlining, decomposition to simple assignments."""

import pytest

from invarc.cli import build_pipeline
from invarc.diagnostics import InlineDepthExceeded
from invarc.frontend import parse_translation_unit
from invarc.frontend.ast import Call
from invarc.frontend.classify import classify_constructs, walk_exprs
from invarc.interp import default_value, run_normalized, run_source
from invarc.normalize import (
    ADDR_OPS, BINARY_OPS, COMPARISONS, Lit, NAssign, NCond, NIf, NStore,
    NWhile, NondetCond, VarRef, cond_text, inline_functions, program_text,
    stmt_text, to_simple_assignments, walk_stmts,
)

from conftest import ENTRIES, corpus_entry, corpus_source
from test_interp import COND_CALL_LOOPS
from test_smt_digests import digest_programs
from test_smt_sorts import PROBE


def norm(src, entry):
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    return to_simple_assignments(ast, report, entry)


def assert_simple(prog):
    """Every statement body holds at most one operator application."""
    for st in walk_stmts(prog.body):
        if isinstance(st, NAssign):
            assert st.op in BINARY_OPS or st.op in ADDR_OPS or st.op in (
                "copy", "const", "deref", "member", "index", "neg", "not",
                "call")
            from invarc.normalize import Lit, VarRef
            for a in st.args:
                assert isinstance(a, (VarRef, Lit)) or a is None
        elif isinstance(st, NStore):
            assert isinstance(st.ptr, str)


def test_decompose_compound_expression():
    prog = norm("int f(int a, int b) { int r = (a + b) * (a - b);"
                " return r; }", "f")
    assert_simple(prog)
    ops = [s.op for s in walk_stmts(prog.body) if isinstance(s, NAssign)]
    assert ops.count("+") == 1 and ops.count("-") == 1 \
        and ops.count("*") == 1


def test_temps_fresh_and_typed():
    prog = norm("int f(int a) { int r = a * a + a; return r; }", "f")
    temps = [d for d in prog.decls.values() if d.kind == "temp"]
    assert len(temps) >= 1
    assert len({d.name for d in temps}) == len(temps)


def test_inline_call_removed():
    # a direct call, and a call through a pointer, in the entry function
    direct = ("int g(int x) { return x + 1; }\n"
              "int f(int a) { int r = g(a); return r; }")
    programs = [(direct, "f"),
                (corpus_source("fp_known.c"), corpus_entry("fp_known.c"))]

    def calls(stmts):
        found = []
        for s in stmts:
            walk_exprs(s, lambda e: found.append(e)
                       if isinstance(e, Call) else None)
        return found

    for src, entry in programs:
        ast = parse_translation_unit(src)
        _, body, _ = inline_functions(ast, classify_constructs(ast), entry)
        assert calls([ast.function(entry).body]) != [], entry
        assert calls(body) == [], entry


def test_inline_depth_limit():
    # A long chain of non-recursive calls past the inlining depth bound.
    n = 80
    lines = ["int f0(int x) { return x + 1; }"]
    for i in range(1, n):
        lines.append(
            f"int f{i}(int x) {{ int r = f{i - 1}(x); return r; }}")
    lines.append(f"int top(int x) {{ int r = f{n - 1}(x); return r; }}")
    with pytest.raises(InlineDepthExceeded):
        norm("\n".join(lines), "top")


def test_control_structure_preserved():
    prog = norm(
        "int f(int a) { int r = 0;"
        " while (a > 0) { if (a > 2) { r = r + 2; } else { r = r + 1; }"
        " a = a - 1; } return r; }", "f")
    loops = [s for s in walk_stmts(prog.body) if isinstance(s, NWhile)]
    assert len(loops) == 1
    ifs = [s for s in walk_stmts(loops[0].body) if isinstance(s, NIf)]
    assert len(ifs) == 1


def test_semantics_preserved_foo():
    src = corpus_source("foo.c")
    entry = corpus_entry("foo.c")
    prog = norm(src, entry)
    ast = parse_translation_unit(src)
    ctype = ast.function(entry).params[0].ctype
    for i in (1, 2, -1):
        r1 = run_source(ast, entry, [default_value(ctype, {sd.name: sd for sd in ast.struct_defs}), i])
        r2 = run_normalized(
            prog, {"c1": default_value(ctype, {sd.name: sd for sd in ast.struct_defs}), "i": i})
        assert r1.finals["cnt"] == r2.finals["cnt"] == 100, i


def test_semantics_preserved_get_row_length():
    src = corpus_source("get_row_length.c")
    entry = corpus_entry("get_row_length.c")
    prog = norm(src, entry)
    ast = parse_translation_unit(src)
    ctype = ast.function(entry).params[0].ctype
    r1 = run_source(ast, entry,
                    [default_value(ctype, {sd.name: sd for sd in ast.struct_defs}), 2])
    r2 = run_normalized(
        prog, {"table_header": default_value(ctype, {sd.name: sd for sd in ast.struct_defs}),
               "index": 2})
    assert r1.ret == r2.ret == 0


def test_deterministic_output():
    src = corpus_source("sequential_scan.c")
    t1 = program_text(norm(src, "SequentialScan"))
    t2 = program_text(norm(src, "SequentialScan"))
    assert t1 == t2


def test_spans_carried():
    prog = norm("int f(int a) {\n int r = a + 1;\n return r;\n}", "f")
    adds = [s for s in walk_stmts(prog.body)
            if isinstance(s, NAssign) and s.op == "+"]
    assert adds[0].span.line == 2


def test_nonrecursive_mutual_calls_inline():
    src = ("int g(int x) { return x + 1; }\n"
           "int h(int x) { int a = g(x); return a * 2; }\n"
           "int top(int x) { int a = h(x); int b = g(a); return b; }")
    prog = norm(src, "top")
    assert_simple(prog)
    r = run_normalized(prog, {"x": 3})
    assert r.ret == (3 + 1) * 2 + 1


def conditions(prog):
    return [s.cond for s in walk_stmts(prog.body)
            if isinstance(s, (NIf, NWhile))]


def condition_programs():
    """(label, source, entry) of the corpus, the digest programs and a
    probe whose conditions hold `&&`, `||`, `!` and `q->x`."""
    for name in sorted(ENTRIES):
        yield name, corpus_source(name), corpus_entry(name)
    for gen, seed, src in digest_programs():
        yield f"{gen}-{seed}", src, "gen"
    yield "probe", PROBE, "f"


def test_conditions_are_atoms():
    """Every normalized condition compares two atoms or tests one; after
    abstraction, a condition is that or a nondeterministic one."""
    ops = set()
    for label, src, entry in condition_programs():
        _, _, prog, _, ab, _ = build_pipeline(src, entry)
        for c in conditions(prog):
            assert isinstance(c, NCond), label
            assert len(c.args) == (1 if c.op == "nonzero" else 2), label
            assert c.op == "nonzero" or c.op in COMPARISONS, label
            assert all(isinstance(a, (VarRef, Lit)) for a in c.args), label
            ops.add(c.op)
        for c in conditions(ab.program):
            assert isinstance(c, (NCond, NondetCond)), label
    assert ops >= {"nonzero", "<", "=="}


def test_a_loop_condition_is_computed_again_at_the_end_of_its_body():
    prog = norm("struct S { int n; };\n"
                "int f(struct S *p) { int i = 0;"
                " while (i < p->n) { i = i + 1; } return i; }", "f")
    (loop,) = [s for s in walk_stmts(prog.body) if isinstance(s, NWhile)]
    before = prog.body[prog.body.index(loop) - 2:prog.body.index(loop)]
    assert [(s.op, s.fld) for s in before] == [("pmember_addr", "n"),
                                               ("deref", None)]
    assert loop.cond == NCond("<", (VarRef("i"), VarRef(before[1].lhs)))
    again = loop.recheck
    assert [program_text([s]) for s in again] == \
        [program_text([s]) for s in before]
    assert all(a is not b for a, b in zip(again, before))


def shape(stmts):
    """The text of each statement under `stmts`, pre-order, with a loop
    or an `if` as its condition: loop ids left out."""
    return [cond_text(s.cond) if isinstance(s, (NIf, NWhile))
            else stmt_text(s) for s in walk_stmts(stmts)]


@pytest.mark.parametrize("label", sorted(COND_CALL_LOOPS))
def test_a_loop_runs_the_calls_of_its_condition_again(label):
    """The calls hoisted out of a loop condition, and the statements that
    compute its operands, come again in the loop's `recheck`: they print
    as the statements before the loop do, but are distinct objects, as
    every statement of a normalized program is.  When the body may return,
    they run only while the `$done` flag is clear."""
    prog = norm(COND_CALL_LOOPS[label], "f")
    (loop,) = [s for s in prog.body if isinstance(s, NWhile) and s.recheck]
    again = loop.recheck
    if isinstance(again[0], NIf):
        guard = again[0].cond
        assert guard.op == "==" and guard.args[0].name.startswith("$done")
        again = again[0].then + again[1:]
    at = prog.body.index(loop)
    before = prog.body[at - len(again):at]
    assert shape(again) == shape(before)
    assert any(isinstance(s, NAssign) and s.lhs == "g"
               for s in walk_stmts(again))
    ids = [id(s) for s in prog.walk()]
    assert len(ids) == len(set(ids))


def test_a_negated_literal_in_a_condition_stays_a_literal():
    prog = norm("int f(int a) { int r = 0; if (a > -3) { r = 1; }"
                " return r; }", "f")
    (branch,) = [s for s in walk_stmts(prog.body) if isinstance(s, NIf)]
    assert branch.cond == NCond(">", (VarRef("a"), Lit(-3, "int")))
