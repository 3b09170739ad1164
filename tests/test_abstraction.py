"""Havoc abstraction tests: soundness of replacing polluted computation."""

import pytest

from invarc.abstraction import abstract_program
from invarc.diagnostics import InconsistentInput
from invarc.frontend import parse_translation_unit
from invarc.frontend.classify import classify_constructs
from invarc.interp import run_normalized
from invarc.normalize import (
    NAssign, NHavoc, NStore, NondetCond, to_simple_assignments, walk_stmts,
)
from invarc.pollution import DependencyGraph, analyze_pollution, propagate

from invarc.pipeline import build_pipeline

from conftest import corpus_entry, corpus_source
from test_slice import slice_programs


def pipeline(name):
    src = corpus_source(name)
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, corpus_entry(name))
    _, _, polluted = analyze_pollution(prog, report)
    return prog, polluted


def nondet_conditions(prog):
    """The conditions that abstraction made nondeterministic."""
    return [st.cond for st in walk_stmts(prog.body)
            if isinstance(getattr(st, "cond", None), NondetCond)]


def test_polluted_assignments_become_havoc():
    prog, polluted = pipeline("sequential_scan.c")
    ab = abstract_program(prog, polluted)
    for st in walk_stmts(ab.program.body):
        if isinstance(st, NAssign):
            assert st.lhs not in polluted, st.lhs


def test_havocked_superset_of_polluted():
    """`ab.havocked` holds every polluted variable and every `NHavoc`
    variable of the abstracted program: the encoder and the candidates
    read it alone for the variables the abstraction leaves free."""
    havocs = 0
    for label, src, entry in slice_programs():
        _, report, prog, _, ab, _ = build_pipeline(src, entry)
        _, _, polluted = analyze_pollution(prog, report)
        vars_ = {s.var for s in ab.program.walk() if isinstance(s, NHavoc)}
        havocs += len(vars_)
        assert polluted | vars_ <= ab.havocked, label
    assert havocs > 0


def test_unpolluted_left_alone():
    prog, polluted = pipeline("foo.c")
    ab = abstract_program(prog, polluted)
    kept = [st for st in walk_stmts(ab.program.body)
            if isinstance(st, NAssign) and st.lhs == "cnt"]
    assert kept, "cnt updates must survive abstraction"


def test_stores_through_polluted_pointers_removed():
    src = ("int g;\n"
           "int f(int* p) { int* q = &g; int x = mystery(); *q = x;"
           " return g; }")
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, "f")
    _, _, polluted = analyze_pollution(prog, report)
    assert "x" in polluted and "g" in polluted
    ab = abstract_program(prog, polluted)
    stores = [st for st in walk_stmts(ab.program.body)
              if isinstance(st, NStore)]
    assert stores == []
    assert len(ab.removed_stmts) == 1


def test_conditions_on_polluted_become_nondet():
    src = ("int f(int a) { int x = mystery(); int r = 0;"
           " if (x > 0) { r = 1; } return r; }")
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, "f")
    _, _, polluted = analyze_pollution(prog, report)
    ab = abstract_program(prog, polluted)
    conds = [st.cond for st in walk_stmts(ab.program.body)
             if hasattr(st, "cond")]
    assert conds and all(isinstance(c, NondetCond) for c in conds)
    assert len(nondet_conditions(ab.program)) == 1


def test_non_closed_set_rejected():
    prog, polluted = pipeline("sequential_scan.c")
    g = DependencyGraph(prog)
    # A set that is not closed under propagation must be refused.
    assert propagate(g, {"schema"}) != {"schema"}
    with pytest.raises(InconsistentInput):
        abstract_program(prog, {"schema"})


def test_idempotent():
    prog, polluted = pipeline("sequential_scan.c")
    ab1 = abstract_program(prog, polluted)
    ab2 = abstract_program(ab1.program, polluted)
    from invarc.normalize import program_text
    assert program_text(ab1.program) == program_text(ab2.program)


def test_abstraction_overapproximates_concrete_run():
    """Any concrete run must be reproducible by some havoc resolution:
    feeding the concrete run's values back through the havocs yields the
    same final state for unpolluted variables."""
    src = ("int f(int a) { int x = mystery(); int clean = a * 2;"
           " int y = x + 1; return clean; }")
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, "f")
    _, _, polluted = analyze_pollution(prog, report)
    ab = abstract_program(prog, polluted)
    r = run_normalized(ab.program, {"a": 5},
                       havoc_value=lambda var, ctype: 42)
    assert r.finals["clean"] == 10
    assert r.ret == 10


def test_empty_polluted_set_is_identity():
    prog, _ = pipeline("get_row_length.c")
    ab = abstract_program(prog, set())
    havocs = [st for st in walk_stmts(ab.program.body)
              if isinstance(st, NHavoc)]
    assert havocs == [] and ab.removed_stmts == [] \
        and nondet_conditions(ab.program) == []
