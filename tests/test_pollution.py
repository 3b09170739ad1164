"""Dependency graph and pollution-closure tests.

The closure computed by ``propagate`` is cross-checked against an
independent oracle: boolean reachability via repeated numpy matrix
squaring over the edge adjacency matrix.  The lazy paths of
``analyze_pollution`` and ``abstract_program`` are compared with an
eager reference: a points-to fixpoint over every assignment, the edge
set statement by statement, one closure per item, unioned, and the
abstraction's walk over the whole program.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarc import normalize as N
from invarc import pollution
from invarc.abstraction import _Abstractor, abstract_program
from invarc.cli import main
from invarc.frontend import parse_translation_unit
from invarc.frontend.classify import classify_constructs
from invarc.invariants import detect_invariants
from invarc.normalize import program_text, to_simple_assignments
from invarc.pipeline import build_pipeline
from invarc.pollution import (
    DependencyGraph, analyze_pollution, initial_labels, propagate,
)

from conftest import ENTRIES, ROOT, corpus_entry, corpus_source
from genprog import random_normalized
from test_smt_digests import digest_programs

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, generate  # noqa: E402


def pipeline(src, entry):
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, entry)
    return prog, report


def numpy_closure(graph, seeds):
    """Reachability from seeds in graph via boolean matrix squaring."""
    verts = sorted(graph.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    m = np.eye(n, dtype=bool)
    for a, b in graph.edges:
        m[idx[a], idx[b]] = True
    # Square log2(n) times: (I | A)^(2^k) covers all paths once 2^k >= n.
    k = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(k):
        m = m @ m
    out = set()
    for s in seeds:
        if s in idx:
            out |= {verts[j] for j in np.flatnonzero(m[idx[s]])}
        else:
            out.add(s)
    return out


def test_edge_directions_simple():
    prog, _ = pipeline("int f(int a) { int b = a + 1; int c = b * b;"
                       " return c; }", "f")
    g = DependencyGraph(prog)
    assert ("a", "b") in g.edges
    assert ("b", "c") in g.edges
    assert ("b", "a") not in g.edges


def test_store_edges_to_base():
    prog, _ = pipeline(
        "int f(int a) { int v; int* p = &v; *p = a; return v; }", "f")
    g = DependencyGraph(prog)
    assert ("a", "v") in g.edges
    assert ("p", "v") in g.edges


def test_unknown_base_falls_back_to_all_compatible():
    prog, _ = pipeline(
        "int g1; int g2; double d1;\n"
        "int f(int* p, int a) { int* q1 = &g1; int* q2 = &g2;"
        " double* q3 = &d1; *p = a; return a; }", "f")
    g = DependencyGraph(prog)
    assert ("a", "g1") in g.edges and ("a", "g2") in g.edges
    assert ("a", "d1") not in g.edges


def test_a_pointer_loaded_from_memory_may_point_anywhere():
    """`p = arr[0]` reads a pointer from memory, and `q = p` copies that
    unknown target: a store through `q` falls back to every address-taken
    variable of its pointee type."""
    prog, _ = pipeline(
        "int g1; int g2; double d1;\n"
        "int f(int a) { int *arr[2]; int *r = &g2; double *s = &d1;"
        " arr[0] = &g1; int *p = arr[0]; int *q = p; *q = a; return a; }",
        "f")
    g = DependencyGraph(prog)
    assert g.analysis.pts["p"] is g.analysis.pts["q"] is pollution.TOP
    assert {b for a, b in g.edges if a == "a"} == {"g1", "g2", "$result"}


def test_dump_deterministic_sorted():
    src = corpus_source("sequential_scan.c")
    prog, _ = pipeline(src, corpus_entry("sequential_scan.c"))
    d1 = DependencyGraph(prog).dump()
    d2 = DependencyGraph(prog).dump()
    assert d1 == d2
    assert d1.rstrip("\n") == "\n".join(sorted(d1.splitlines()))


def test_initial_labels_missing_item():
    """An item no statement realizes, here the library call in `h`,
    which the entry `f` never calls, has no entry."""
    prog, report = pipeline("int h(int a) { return lib(a); }"
                            " int f(int a) { int b = lib(a); return a; }",
                            "f")
    _, second = report.unmodelable_items
    assert initial_labels(prog, pollution._BaseAnalysis(prog)) \
        == {second: {"$call1"}}


def test_propagate_matches_numpy_small():
    prog, _ = pipeline("int f(int a) { int b = a + 1; int c = 2;"
                       " int d = c + b; return d; }", "f")
    g = DependencyGraph(prog)
    got = propagate(g, {"a"})
    assert got == numpy_closure(g, {"a"})
    assert {"a", "b", "d"} <= got and "c" not in got


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_propagate_matches_numpy_random(seed):
    prog = random_normalized(seed)
    g = DependencyGraph(prog)
    verts = sorted(g.vertices)
    if not verts:
        return
    seeds = {verts[seed % len(verts)]}
    assert propagate(g, seeds) == numpy_closure(g, seeds)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.data())
def test_propagate_monotone(seed, data):
    prog = random_normalized(seed)
    g = DependencyGraph(prog)
    verts = sorted(g.vertices)
    if len(verts) < 2:
        return
    small = set(data.draw(st.lists(st.sampled_from(verts), min_size=1,
                                   max_size=2, unique=True)))
    extra = set(data.draw(st.lists(st.sampled_from(verts), max_size=2,
                                   unique=True)))
    assert propagate(g, small) <= propagate(g, small | extra)


def test_seeds_always_in_closure():
    prog, _ = pipeline("int f(int a) { return a; }", "f")
    g = DependencyGraph(prog)
    assert "a" in propagate(g, {"a"})


def test_analyze_pollution_sequential_scan():
    src = corpus_source("sequential_scan.c")
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, "SequentialScan")
    g, results, union = analyze_pollution(prog, report)
    assert union == {"col_id", "column_value", "curr_pred_inst",
                     "current_predicate"}
    temps = {d.name for d in prog.decls.values() if d.kind == "temp"}
    assert not (union & temps)


def test_analyze_pollution_foo():
    # foo's only flagged item is taking the address of a struct member;
    # the closure reaches the struct and the pointer but not the counters.
    src = corpus_source("foo.c")
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, "foo")
    _, _, union = analyze_pollution(prog, report)
    non_temp = {v for v in union if not v.startswith("$")}
    assert non_temp == {"c1", "mp"}
    assert "cnt" not in union and "i" not in union


def test_golden_graph_sequential_scan():
    src = corpus_source("sequential_scan.c")
    prog, _ = pipeline(src, "SequentialScan")
    from conftest import GOLDEN
    golden = (GOLDEN / "sequential_scan.graph.txt").read_text()
    assert DependencyGraph(prog).dump() + "\n" == golden


def test_one_points_to_analysis_per_program(monkeypatch):
    runs = []
    run = pollution._BaseAnalysis._run

    def counted(self):
        runs.append(self.prog)
        run(self)

    monkeypatch.setattr(pollution._BaseAnalysis, "_run", counted)
    _, _, prog, graph, _, _ = build_pipeline(
        corpus_source("sequential_scan.c"), "SequentialScan")
    assert runs == [prog]
    assert graph.analysis.prog is prog


# --- the lazy analysis against an eager reference ---------------------------

class EagerAnalysis(pollution._BaseAnalysis):
    """The points-to fixpoint iterated over every assignment, not only
    over those whose transfer can contribute."""

    def _run(self):
        stmts = [s for s in self.prog.walk() if isinstance(s, N.NAssign)]
        for s in stmts:
            hint = self._hint(s)
            if hint is not None and hint[0] == "var":
                self.address_taken.add(hint[1])
        changed = True
        while changed:
            changed = False
            for s in stmts:
                new = self._flow(s)
                old = self.pts.get(s.lhs, set())
                if new is None or old is pollution.TOP \
                        or (new is not pollution.TOP and new <= old):
                    continue
                self.pts[s.lhs] = new if new is pollution.TOP else old | new
                changed = True


def eager_edges(prog, analysis):
    """The edge set, one (src, dst) pair per application of a graph
    rule to a statement."""
    edges = set()
    for s in prog.walk():
        if isinstance(s, N.NAssign):
            edges |= {(v, s.lhs) for a in s.args for v in N.atom_vars(a)}
        elif isinstance(s, N.NStore):
            srcs = N.atom_vars(s.value) + N.atom_vars(s.ptr)
            edges |= {(v, b) for b in pollution.store_bases(s, analysis)
                      for v in srcs}
        elif isinstance(s, N.NUnmodelableCall):
            dsts = pollution._pointer_arg_bases(s, analysis)
            dsts |= {s.lhs} if s.lhs else set()
            edges |= {(v, b) for a in s.args for v in N.atom_vars(a)
                      for b in dsts}
    return edges


def reach(edges, seeds):
    """The vertices reachable from `seeds` along `edges`."""
    out = set(seeds)
    while True:
        more = {b for a, b in edges if a in out} - out
        if not more:
            return out
        out |= more


TWO_ITEMS = ("int g1; int g2;\n"
             "int f(int a) { int x = lib1(a); int y = x + 1; g1 = y;"
             " int u = lib2(a); int v = u * 2; g2 = v; return a; }")
NO_LABEL = "int g; int f(int a) { g = a; tick(); return g; }"


def differential_programs():
    """(label, source, entry) of a unit whose two items pollute disjoint
    sets, of one whose item labels nothing, of the corpus, the digest
    programs and the first 10 seed-1 programs of each benchmark
    workload."""
    yield "two_items", TWO_ITEMS, "f"
    yield "no_label", NO_LABEL, "f"
    for name in sorted(ENTRIES):
        yield name, corpus_source(name), corpus_entry(name)
    for gen, seed, src in digest_programs():
        yield f"{gen}-{seed}", src, "gen"
    for workload in WORKLOADS:
        for p in generate(workload, 1)[:10]:
            yield p.name, p.source, p.entry


def test_lazy_pollution_matches_the_eager_reference():
    """`analyze_pollution` and `abstract_program` skip a unit without
    items, build the successor map in one walk, iterate the points-to
    fixpoint over the statements that can contribute and close the seeds
    of all items at once; the eager reference does none of that."""
    with_items = 0
    for label, src, entry in differential_programs():
        prog, report = pipeline(src, entry)
        graph, labels, union = analyze_pollution(prog, report)
        ab = abstract_program(prog, union, graph)

        ref = EagerAnalysis(prog)
        edges = eager_edges(prog, ref)
        ref_labels = initial_labels(prog, ref)
        ref_union = set().union(*(reach(edges, seeds)
                                  for seeds in ref_labels.values()))
        ref_ab = _Abstractor(prog, ref_union, ref)
        ref_body = ref_ab.body(prog.body)

        assert union == ref_union, label
        assert labels == ref_labels, label
        for seeds in labels.values():
            assert propagate(graph, seeds) == reach(edges, seeds), label
        assert ab.removed_stmts == ref_ab.removed, label
        assert ab.havocked == ref_ab.havocked | ref_union, label
        assert program_text(ab.program) == program_text(ref_body), label
        assert graph.analysis.pts == ref.pts, label
        assert graph.analysis.address_taken == ref.address_taken, label
        assert graph.edges == edges, label
        assert graph.dump() == DependencyGraph(prog, ref).dump(), label
        with_items += bool(ref_labels)
    assert with_items >= 10


def test_item_free_unit_dumps_the_whole_graph(capsys, tmp_path):
    src = ("int g; int f(int a, int *p) { int b = a + g; *p = b;"
           " int *q = &g; *q = b * 2; return b; }")
    prog, report = pipeline(src, "f")
    assert not report.unmodelable_items
    graph, labels, union = analyze_pollution(prog, report)
    assert (labels, union) == ({}, set())
    ab = abstract_program(prog, union, graph)
    assert ab.program is prog and ab.havocked == set()
    dump = DependencyGraph(prog).dump()
    assert "b -> g" in dump
    path = tmp_path / "f.c"
    path.write_text(src)
    assert main([str(path), "--dump", "graph", "--solver", "none",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out[:len(dump)] == dump and out[len(dump)] == "{"


# --- what a non-inlined call writes -----------------------------------------

def reference_written_globals(ast, report, fname):
    """`SubsetReport.written_globals` as `pollution.written_globals` had
    it before the call graph was kept on the report: the callees are
    found again by walking each body from `fname`."""
    from invarc.frontend.ast import (
        ArrayType, AssignStmt, Call, CompoundStmt, FunctionDef, IfStmt,
        Index, Member, Name, Unary, VarDecl, WhileStmt,
    )
    from invarc.frontend.classify import walk_exprs

    out, seen, todo = set(), set(), [fname]

    def stmts(s):
        if isinstance(s, CompoundStmt):
            for x in s.stmts:
                yield from stmts(x)
        elif isinstance(s, IfStmt):
            yield from stmts(s.then)
            yield from stmts(s.els)
        elif isinstance(s, WhileStmt):
            yield from stmts(s.body)
        elif s is not None:
            yield s

    def add_root(e):
        while (isinstance(e, Index) and isinstance(e.arr.ctype, ArrayType)) \
                or (isinstance(e, Member) and not e.arrow):
            e = e.arr if isinstance(e, Index) else e.obj
        if isinstance(e, Name) and isinstance(e.decl, VarDecl):
            out.add(e.ident)

    def visit(e):
        if isinstance(e, Unary) and e.op == "&":
            add_root(e.operand)
        elif isinstance(e, Name) and isinstance(e.ctype, ArrayType):
            add_root(e)
        elif isinstance(e, Call):
            callee = e.callee.decl if isinstance(e.callee, Name) else None
            if isinstance(callee, FunctionDef):
                todo.append(callee.name)
            elif not (isinstance(e.callee, Name) and callee is None):
                todo.extend(report.fp_targets(ast, e.callee.ctype))

    while todo:
        fn = ast.function(todo.pop())
        if fn is None or fn.name in seen:
            continue
        seen.add(fn.name)
        walk_exprs(fn.body, visit)
        for s in stmts(fn.body):
            if isinstance(s, AssignStmt):
                add_root(s.target)
    return out


def test_written_globals_match_the_reference():
    """The summary follows `SubsetReport.calls`; the reference finds the
    callees again.  Both give the same globals for every function."""
    writers = 0
    for label, src, entry in differential_programs():
        ast = parse_translation_unit(src)
        report = classify_constructs(ast)
        for fn in ast.functions:
            got = report.written_globals(ast, fn.name)
            assert got == reference_written_globals(ast, report, fn.name), \
                (label, fn.name)
            writers += bool(got)
        assert report.written_globals(ast, "no_such_function") == set()
    assert writers >= 50


GLOBAL_POINTER_STORE = """int g; int *gp;
void r(int n) { if (n > 0) { *gp = 1; r(n - 1); } }
int f(int n) { gp = &g; r(1); return 0; }
"""
POINTEE_STORE = """int g;
void r(int **pp, int n) { if (n > 0) { **pp = 1; r(pp, n - 1); } }
int f(int n) { int *q = &g; r(&q, 1); return 0; }
"""


@pytest.mark.parametrize("src", [GLOBAL_POINTER_STORE, POINTEE_STORE],
                         ids=["global-pointer", "pointee-of-argument"])
def test_a_recursive_store_through_a_pointer_pollutes_its_targets(src):
    """The recursive callee writes `g` through a pointer it was not
    passed, so `g` must not be proved invariant: no query is emitted
    for it, so only pollution keeps the verdict sound."""
    _, report, prog, _, ab, enc = build_pipeline(src, "f")
    assert report.stores_through_pointer(prog.ast, "r")
    assert "g" in ab.havocked
    result = detect_invariants(ab, enc, lambda: None)
    assert "g" in result.polluted
    assert all(c.verdict != "invariant" for c in result.candidates
               if c.variable == "g")


def pointer_store_program(seed):
    """A unit whose entry `f(a, b)` calls a recursive helper that writes
    one of three globals through a pointer it was not passed: through
    the global pointer `gp`, through `**pp`, or in a non-recursive
    function it calls.  The helper is sometimes reached through a
    function pointer.  Not a digest generator: used only here."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    target = f"g{rng.randrange(3)}"
    head = "int g0; int g1; int g2; int *gp;\n"
    if rng.random() < 0.5:
        store = f"*gp = *gp + {k};"
        if rng.random() < 0.5:
            head += f"void put(int v) {{ gp[0] = v + {k}; }}\n"
            store = "put(*gp);"
        helper = (f"void r(int n) {{ if (n > 0) {{ {store} r(n - 1); }} }}\n")
        setup, call, sig = f"gp = &{target};", "r(a);", "void (*h)(int)"
        arg = "a"
    else:
        helper = (f"void r(int **pp, int n) {{ if (n > 0) {{ **pp = **pp + {k};"
                  f" r(pp, n - 1); }} }}\n")
        setup, sig = f"int *q = &{target};", "void (*h)(int **, int)"
        arg = "&q, a"
    call = f"r({arg});"
    if rng.random() < 0.3:
        call = f"{sig} = &r; h({arg});"
    other = f"g{rng.randrange(3)}"
    body = (f"{setup} {other} = {other} + b - b; {call} "
            f"if (b > 0) {{ g{rng.randrange(3)} = b; }} return a;")
    return head + helper + f"int f(int a, int b) {{ {body} }}\n"


def test_no_execution_breaks_an_invariant_of_a_pointer_store_program():
    """No reported invariant is broken by a run of the source program,
    on any input in [-1, 2] x [-1, 1].  No solver is needed: the
    unsound verdict this guards against comes without a query."""
    from invarc.invariants import execute

    stored = 0
    for seed in range(40):
        src = pointer_store_program(seed)
        ast, _, _, _, ab, enc = build_pipeline(src, "f")
        report = detect_invariants(ab, enc, lambda: None)
        claimed = [c for c in report.candidates if c.verdict == "invariant"]
        for a in range(-1, 3):
            for b in range(-1, 2):
                run = execute(ast, "f", (a, b), enc.loop_spans(), 10_000)
                assert run is not None, (seed, a, b)
                for c in claimed:
                    assert run.holds(c) is not False, (src, c.variable, a, b)
        stored += bool({"g0", "g1", "g2"} & set(report.polluted))
    assert stored == 40
