"""In-process refutation tests: SMT-LIB semantics of the evaluator, and
a differential check of its models against the reference interpreter."""

import itertools

import pytest

from invarc._records import replace
from invarc.cli import build_pipeline
from invarc.diagnostics import EncodeError
from invarc.encoder import ADDR, BOOL, INT, REAL, Datatype, SolverScript, \
    array_sort, parse_term, struct_sort
from invarc.interp import InterpError, run_source
from invarc.invariants import emit_query, enumerate_candidates
from invarc.refute import refute_queries

from genprog import mutating_c


def script(decls, background, *queries, datatypes=()):
    """A script with the record sorts `datatypes`, declaring `decls`,
    defining each constant `x` of a background `(= x t)` as `t`, with
    queries `q0`, `q1`, ..."""
    s = SolverScript(datatypes=list(datatypes))
    syms = {name: s.declare(name, sort) for name, sort in decls}
    for text in background:
        eq = parse_term(text)
        s.define(syms[eq.args[0].op], eq.args[1])
    for i, q in enumerate(queries):
        s.add_query(f"q{i}", q)
    return s


def refuted(decls, background, *queries, datatypes=()):
    return {int(name[1:]) for name in refute_queries(
        script(decls, background, *queries, datatypes=datatypes))}


def lit(n):
    return str(n) if n >= 0 else f"(- {-n})"


def test_unsatisfiable_queries_are_never_refuted():
    x = [("x", INT)]
    assert refuted(x, [], "(not (= x x))", "(and (> x 0) (< x 0))",
                   "(> x 2)") == {2}
    assert refuted(x, ["(= x 1)"], "(= x 2)", "(= x 1)") == {1}


def test_div_follows_smtlib():
    # a - b * (div a b) lies in [0, |b|).
    for a, b in itertools.product(range(-7, 8), (-3, -2, -1, 1, 2, 3)):
        r = f"(- {lit(a)} (* {lit(b)} (div {lit(a)} {lit(b)})))"
        assert refuted([], [], f"(<= 0 {r})", f"(< {r} {lit(abs(b))})") \
            == {0, 1}
    assert refuted([], [], "(= (div (- 7) 2) (- 4))",
                   "(= (div (- 7) 2) (- 3))") == {0}


def test_division_by_zero_is_left_to_the_solver():
    xy = [("x", INT), ("y", INT)]
    assert refuted(xy, ["(= y (div x 0))"], "(= y y)") == set()


def test_arrays_are_extensional():
    m = [("m", array_sort(INT, INT))]
    assert refuted(m, [], "(not (= (select (store m 1 5) 1) 5))",
                   "(not (= (store m 1 (select m 1)) m))",
                   "(not (= (store m 1 5) m))") == {2}


def test_records_and_functions():
    nxt = "(mk-addr (addr-base p) (+ (addr-off p) 1))"
    assert refuted([("p", ADDR)], [],
                   f"(not (= (addr-base {nxt}) (addr-base p)))",
                   f"(= (addr-off {nxt}) (addr-off p))",
                   f"(not (= {nxt} p))",
                   "(= (cdiv (- 7) 2) (- 4))",
                   "(and (= (cdiv (- 7) 2) (- 3)) (= (cmod (- 7) 2) (- 1)))"
                   ) == {2, 4}


def test_arrays_of_records_and_of_reals_are_drawn():
    """An array of a struct record, one keyed by such a record and one of
    Real values are drawn.  An array keyed by Bool is not: two arrays
    with different defaults might agree at both keys."""
    p = struct_sort("P")
    point = Datatype(p, "mk$P", (("T$P$x", INT), ("T$P$y", REAL)))
    decls = [("a", array_sort(INT, p)), ("k", array_sort(p, INT)),
             ("r", array_sort(INT, REAL)), ("b", array_sort(BOOL, INT))]
    assert refuted(decls, [],
                   "(= (T$P$y (select (store a 0 (mk$P 1 2.5)) 0)) 2.5)",
                   "(not (= (store a 1 (select a 1)) a))",
                   "(> (T$P$x (select a 3)) 0)",
                   "(= (select (store k (mk$P 0 0.5) 7) (mk$P 0 0.5)) 7)",
                   "(< (select r 0) (+ (select r 1) 0.5))",
                   "(= (select b true) (select b true))",
                   datatypes=[point]) == {0, 2, 3, 4}


def test_the_cone_narrows_as_queries_fall():
    """A trial evaluates only what the open queries read: once `z > 3`
    is refuted, `x` and `z` are no longer drawn or computed, so the model
    of the query refuted later holds `y` alone."""
    models = refute_queries(script(
        [("x", INT), ("z", INT), ("y", INT)], ["(= z (+ x 1))"],
        "(> z 3)", "(< y (- 5000))"))
    assert set(models["q0"]) == {"x", "y", "z"}
    assert set(models["q1"]) == {"y"}


def test_unsupported_input_decides_nothing():
    # an undeclared function
    assert refuted([], [], "(= (f 1) 1)") == set()
    # true => (true => false) is false; ill-sorted terms are not evaluated.
    assert refuted([("x", INT)], [], "(=> true true false)", "(not 1 2)",
                   "(< (select x 1) 3)") == set()


@pytest.mark.parametrize("text", ["(= 1", "(= 1 1) (= 2 2)", "", "()",
                                  "(= 1))", "((f) 1)", '(= 1 1) "',
                                  "(= x |a b)"])
def test_text_that_is_not_one_term_is_no_query(text):
    s = SolverScript()
    with pytest.raises(EncodeError):
        s.add_query("q", text)
    assert s.queries == []


def test_a_quoted_symbol_is_one_leaf():
    t = parse_term("(= x |a b|)")
    assert [a.op for a in t.args] == ["x", "|a b|"]


def test_text_and_term_queries_render_and_refute_alike():
    """Each query of the CLI, added again as its own text, renders the
    same bytes and is refuted with the same model."""
    refuted_any = kept_any = False
    for seed in range(5):
        *_, ab, enc = build_pipeline(mutating_c(seed), "gen")
        for i, c in enumerate(enumerate_candidates(ab, enc)):
            emit_query(c, enc.script, f"q{i}")
        terms = enc.script
        texts = replace(terms, queries=[], _query_names=set())
        for name, q in terms.queries:
            texts.add_query(name, q.text)
        assert texts.render() == terms.render()
        models = refute_queries(terms)
        assert refute_queries(texts) == models
        refuted_any |= bool(models)
        kept_any |= len(models) < len(terms.queries)
    assert refuted_any and kept_any


def test_refutations_reproduce_in_the_interpreter():
    """Loop-free, unpolluted code is encoded exactly, so each model of a
    refuted entry-exit query is an input on which the variable's final
    value differs from its entry value."""
    checked = 0
    for seed in range(60):
        ast, _, prog, _, ab, enc = build_pipeline(mutating_c(seed), "gen")
        cands = enumerate_candidates(ab, enc)
        for i, c in enumerate(cands):
            emit_query(c, enc.script, f"q{i}")
        models = refute_queries(enc.script)
        for c in cands:
            model = models.get(c.query_names[0]) if c.query_names else None
            if model is None:
                continue
            args = [model.get(enc.entry_env[v].text, 0) for v in ("a", "b", "c")]
            try:
                res = run_source(ast, "gen", args)
            except InterpError:
                continue    # division by zero: undefined in C
            assert res.entry_values[c.variable] != res.finals[c.variable], \
                (seed, c.variable, args)
            checked += 1
    assert checked >= 50
