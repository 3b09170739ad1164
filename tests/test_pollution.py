"""Dependency graph and pollution-closure tests.

The closure computed by ``propagate`` is cross-checked against an
independent oracle: boolean reachability via repeated numpy matrix
squaring over the edge adjacency matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarc import pollution
from invarc.diagnostics import ItemNotFound
from invarc.frontend import parse_translation_unit
from invarc.frontend.classify import classify_constructs
from invarc.normalize import to_simple_assignments
from invarc.pipeline import build_pipeline
from invarc.pollution import (
    analyze_pollution, build_dependency_graph, initial_labels, propagate,
)

from conftest import corpus_entry, corpus_source
from genprog import random_normalized


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
    g = build_dependency_graph(prog)
    assert ("a", "b") in g.edges
    assert ("b", "c") in g.edges
    assert ("b", "a") not in g.edges


def test_store_edges_to_base():
    prog, _ = pipeline(
        "int f(int a) { int v; int* p = &v; *p = a; return v; }", "f")
    g = build_dependency_graph(prog)
    assert ("a", "v") in g.edges
    assert ("p", "v") in g.edges


def test_unknown_base_falls_back_to_all_compatible():
    prog, _ = pipeline(
        "int g1; int g2; double d1;\n"
        "int f(int* p, int a) { int* q1 = &g1; int* q2 = &g2;"
        " double* q3 = &d1; *p = a; return a; }", "f")
    g = build_dependency_graph(prog)
    assert ("a", "g1") in g.edges and ("a", "g2") in g.edges
    assert ("a", "d1") not in g.edges


def test_dump_deterministic_sorted():
    src = corpus_source("sequential_scan.c")
    prog, _ = pipeline(src, corpus_entry("sequential_scan.c"))
    d1 = build_dependency_graph(prog).dump()
    d2 = build_dependency_graph(prog).dump()
    assert d1 == d2
    assert d1.rstrip("\n") == "\n".join(sorted(d1.splitlines()))


def test_initial_labels_missing_item():
    src = corpus_source("foo.c")
    prog, report = pipeline(src, "foo")
    class FakeItem:
        kind = "library-call"
        span = None
    with pytest.raises(ItemNotFound):
        initial_labels(prog, FakeItem())


def test_propagate_matches_numpy_small():
    prog, _ = pipeline("int f(int a) { int b = a + 1; int c = 2;"
                       " int d = c + b; return d; }", "f")
    g = build_dependency_graph(prog)
    got = propagate(g, {"a"})
    assert got == numpy_closure(g, {"a"})
    assert {"a", "b", "d"} <= got and "c" not in got


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_propagate_matches_numpy_random(seed):
    prog = random_normalized(seed)
    g = build_dependency_graph(prog)
    verts = sorted(g.vertices)
    if not verts:
        return
    seeds = {verts[seed % len(verts)]}
    assert propagate(g, seeds) == numpy_closure(g, seeds)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.data())
def test_propagate_monotone(seed, data):
    prog = random_normalized(seed)
    g = build_dependency_graph(prog)
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
    g = build_dependency_graph(prog)
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
    assert build_dependency_graph(prog).dump() + "\n" == golden


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
