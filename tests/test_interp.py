"""Reference interpreter tests, plus source/normalized agreement."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarc.frontend import parse_translation_unit
from invarc.frontend.classify import classify_constructs
from invarc.interp import (
    StepBudgetExceeded, c_div, c_mod, run_normalized, run_source,
)
from invarc.normalize import to_simple_assignments

from genprog import branchy_c, fp_global_c, loopy_c, straightline_c


def norm(src, entry):
    ast = parse_translation_unit(src)
    return ast, to_simple_assignments(ast, classify_constructs(ast), entry)


# --- C arithmetic semantics (division truncates toward zero) ---------------

@pytest.mark.parametrize("a,b,q,r", [
    (7, 2, 3, 1),
    (-7, 2, -3, -1),
    (7, -2, -3, 1),
    (-7, -2, 3, -1),
    (1, 3, 0, 1),
    (-1, 3, 0, -1),
])
def test_trunc_division(a, b, q, r):
    assert c_div(a, b) == q
    assert c_mod(a, b) == r


@given(st.integers(-1000, 1000), st.integers(-1000, 1000).filter(bool))
def test_div_mod_identity(a, b):
    assert c_div(a, b) * b + c_mod(a, b) == a
    assert abs(c_mod(a, b)) < abs(b)


def test_source_division_example():
    ast = parse_translation_unit(
        "int f(int a, int b) { int q = a / b; return q; }")
    assert run_source(ast, "f", [-7, 2]).ret == -3


def test_double_arithmetic_exact():
    ast = parse_translation_unit(
        "double f() { double d = 1; double s = d / 4 + d / 4;"
        " return s; }")
    assert run_source(ast, "f", []).ret == Fraction(1, 2)


def test_step_budget():
    ast = parse_translation_unit(
        "int f() { int x = 0; while (x < 10) { x = x * 1; } return x; }")
    with pytest.raises(StepBudgetExceeded):
        run_source(ast, "f", [], budget=1000)


def test_pointer_swap():
    ast = parse_translation_unit(
        "void swap(int* p, int* q) {"
        " int t = *p; *p = *q; *q = t; }\n"
        "int use(int a, int b) { swap(&a, &b); return a - b; }")
    assert run_source(ast, "use", [3, 10]).ret == 7


def test_struct_member_and_array():
    ast = parse_translation_unit(
        "struct P { int x; int y; };\n"
        "int f() { struct P p; int a[3]; p.x = 4; p.y = 2;"
        " a[p.y] = p.x * 5; return a[2] + p.y; }")
    assert run_source(ast, "f", []).ret == 22


def test_stores_through_nested_members():
    """Stores through `o.in.x`, `(*p).x` and `a[1].x`, where `a` is an
    array of structs, reach the cells the reads find.  The normalizer
    rejects a nested member store, so only the source interpreter runs
    this program."""
    ast = parse_translation_unit(
        "struct I { int x; }; struct O { struct I in; int y; };\n"
        "int f(int v) { struct O o; struct I i; struct I *p = &i;"
        " struct I a[2]; o.in.x = v; (*p).x = v + 1; a[1].x = v + 2;"
        " return o.in.x * 100 + i.x * 10 + a[1].x; }")
    assert run_source(ast, "f", [1]).ret == 123
    assert run_source(ast, "f", [-2]).ret == -210


def test_function_pointer_call():
    ast = parse_translation_unit(
        "int inc(int x) { return x + 1; }\n"
        "int dbl(int x) { return x * 2; }\n"
        "int pick(int w, int v) { int (*fp)(int);"
        " if (w) { fp = &inc; } else { fp = &dbl; }"
        " int r = fp(v); return r; }")
    assert run_source(ast, "pick", [1, 10]).ret == 11
    assert run_source(ast, "pick", [0, 10]).ret == 20


# --- frozen oracle values for the program generators -----------------------

def test_straightline_frozen():
    src = straightline_c(1)
    ast, prog = norm(src, "gen")
    expect = {(0, 0): 0, (2, -1): -3, (-3, 3): 6}
    for (a, b), want in expect.items():
        r = run_source(ast, "gen", [a, b])
        assert r.ret == want, (a, b)
        assert r.finals["keep"] == a
        rn = run_normalized(prog, {"a": a, "b": b})
        assert rn.ret == want and rn.finals["keep"] == a


def test_loopy_frozen():
    src = loopy_c(3)
    ast, prog = norm(src, "gen")
    for a, want in [(-2, 5), (0, 5), (2, 5)]:
        assert run_source(ast, "gen", [a, 5]).ret == want
        assert run_normalized(prog, {"a": a, "b": 5}).ret == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(-3, 3), st.integers(-3, 3))
def test_straightline_agreement(seed, a, b):
    src = straightline_c(seed)
    ast, prog = norm(src, "gen")
    r1 = run_source(ast, "gen", [a, b])
    r2 = run_normalized(prog, {"a": a, "b": b})
    assert r1.ret == r2.ret
    assert r1.finals["keep"] == r2.finals["keep"] == a


INITIALIZERS = ("int g = 5; int h[2] = {7, 8};\n"
                "int f(int a) { int b[3] = {a, g, a + g}; int c = b[2] * 2;"
                " g = g + b[1]; return c + h[1] + b[0]; }")


@pytest.mark.parametrize("a", range(-3, 4))
def test_declaration_initializers_agree(a):
    """A global's scalar and brace initializers and a local's brace
    initializer set the same values in both interpreters."""
    ast, prog = norm(INITIALIZERS, "f")
    want = run_source(ast, "f", [a])
    got = run_normalized(prog, {"a": a})
    assert got.ret == want.ret == (a + 5) * 2 + 8 + a
    assert got.finals["g"] == want.finals["g"] == 10
    assert got.finals["c"] == want.finals["c"]


DROPPED_CALLS = """int g;
int inc(int d) { g = g + 1; return d + g; }
void bump(int d) { g = g + d; }
int dbl(int x) { return x * 2; }
int f(int a) {
  inc(a);
  bump(a);
  int r = (&dbl)(a);
  return r + g;
}
"""


@pytest.mark.parametrize("a", range(-3, 4))
def test_dropped_void_and_parenthesized_calls_agree(a):
    """An inlined call whose value is dropped, a call to a `void`
    function and a call through `(&dbl)` write `g` and return as the
    source's calls do."""
    ast, prog = norm(DROPPED_CALLS, "f")
    want = run_source(ast, "f", [a])
    got = run_normalized(prog, {"a": a})
    assert got.ret == want.ret == 3 * a + 1
    assert got.finals["g"] == want.finals["g"] == a + 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
def test_branchy_agreement(seed, a, b, c):
    src = branchy_c(seed)
    ast, prog = norm(src, "gen")
    r1 = run_source(ast, "gen", [a, b, c])
    r2 = run_normalized(prog, {"a": a, "b": b, "c": c})
    assert r1.ret == r2.ret


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(-3, 3), st.integers(-3, 3))
def test_function_pointer_agreement(seed, a, b):
    """Calls through a pointer, lowered to one inlined arm per target,
    return and write the globals as the source calls do."""
    ast, prog = norm(fp_global_c(seed), "gen")
    r1 = run_source(ast, "gen", [a, b])
    r2 = run_normalized(prog, {"a": a, "b": b})
    assert r1.ret == r2.ret
    assert all(r1.finals[g] == r2.finals[g] for g in ("g", "h", "u"))


def test_loop_events_phases():
    ast = parse_translation_unit(
        "int f(int n) { int i = 0; while (i < n) { i = i + 1; }"
        " return i; }")
    ev = run_source(ast, "f", [2]).loop_events
    phases = [phase for _, phase, _ in ev]
    assert phases == ["pre", "head", "bend", "head", "bend", "post"]
    assert ev[0][2]["i"] == 0
    assert ev[-1][2]["i"] == 2


def test_loop_change_index():
    ast = parse_translation_unit(
        "int f(int n) { int i = 0; int k = 5;"
        " while (i < n) { i = i + 1; k = k + 0; } return i; }")
    run = run_source(ast, "f", [2])
    ((span, (compared, changed)),) = run.loop_changes().items()
    assert (compared, changed) == ({"n", "i", "k"}, {"i"})
    assert run.loop_changes("pre", "post") == {span: (compared, {"i"})}
    run = run_source(ast, "f", [0])
    assert run.loop_changes() == {}
    assert run.loop_changes("pre", "post") == {span: (compared, set())}


COND_CALL = ("int g; int inc(int d) { g = g + 1; return d; }\n"
             "int f(int n) { int i = 0;\n"
             "  while (inc(i) < 3) { g = g - 1; i = i + 1; } return g; }\n")


def test_loop_body_ends_before_the_condition_runs_again():
    """Both interpreters take the body-end snapshot before the calls of
    the condition run again, so `g` falls by one across each body."""
    ast, prog = norm(COND_CALL, "f")
    runs = (run_source(ast, "f", [0]), run_normalized(prog, {"n": 0}))
    seen = [[(phase, snap["g"]) for _, phase, snap in r.loop_events
             if phase in ("head", "bend")] for r in runs]
    assert seen[0] == seen[1] == [("head", 1), ("bend", 0), ("head", 1),
                                  ("bend", 0), ("head", 1), ("bend", 0)]


RETURN_IN_LOOP = (
    "int g; int dec(int d) { g = g - 1; return d; }\n"
    "int h(int n) { int i = 0;\n"
    "  while (dec(i) < 5) { g = g + 2; if (i == n) { return 7; } i = i + 1; }\n"
    "  return 0; }\n"
    "int f(int n) { int r = h(n); return g; }\n")


@pytest.mark.parametrize("n", range(-1, 7))
def test_condition_calls_do_not_run_after_an_inlined_return(n):
    """A return in the loop of an inlined callee leaves the loop before
    its condition, and the condition's call, runs again."""
    ast, prog = norm(RETURN_IN_LOOP, "f")
    assert run_source(ast, "f", [n]).ret == run_normalized(prog, {"n": n}).ret


# Loops whose condition holds a call: the calls, inlined, run before the
# loop and again after each body, in `NWhile.recheck`.
COND_CALL_LOOPS = {
    "global-write": COND_CALL,
    "early-return": RETURN_IN_LOOP,
    "callee-loop": (
        "int g; int tri(int k) { int s = 0; int j = 0;\n"
        "  while (j < k) { s = s + j; j = j + 1; } g = g + s; return s; }\n"
        "int f(int n) { int i = 0;\n"
        "  while (tri(i) < n) { i = i + 1; } return i + g; }\n"),
    "call-and-member": (
        "struct S { int n; }; int g;\n"
        "int inc(int d) { g = g + 1; return d + 1; }\n"
        "int f(int n) { struct S s; struct S *p = &s; int i = 0; s.n = n;\n"
        "  while (inc(i) < 6 && p->n > i) { i = i + 1; p->n = p->n - 1; }\n"
        "  return i + g; }\n"),
}


@pytest.mark.parametrize("label", sorted(COND_CALL_LOOPS))
def test_loops_with_a_call_in_their_condition_agree(label):
    """A call in a loop condition that writes a global, returns early from
    an inlined loop, runs a loop of its own, or sits beside `p->n` under
    `&&`: both interpreters return the same value, leave `g` the same, and
    see the same loop heads and body ends.  A return in the loop records
    no body end in the source, so its body ends begin the normalized
    program's."""
    ast, prog = norm(COND_CALL_LOOPS[label], "f")

    def events(run, phase):
        return [(span, snap) for span, p, snap in run.loop_events
                if p == phase]
    for n in range(-1, 7):
        want = run_source(ast, "f", [n])
        got = run_normalized(prog, {"n": n})
        assert got.ret == want.ret, n
        assert got.finals["g"] == want.finals["g"], n
        for phase in ("head", "bend"):
            seen, met = events(want, phase), events(got, phase)
            if phase == "head":
                assert len(met) == len(seen), n
            else:
                assert len(met) >= len(seen), n
            for (s1, v1), (s2, v2) in zip(seen, met):
                assert s1 == s2 and all(v1[k] == v2[k] for k in v1), \
                    (n, phase)


COMPOUND_CONDITIONS = """struct S { int f; int g; };
int h(int n, int m) {
  int k = 0;
  while (k < n && !(k * 2 > m + 3)) {
    if (k - m == 1 || k > 4) { return k + 10; }
    k = k + 1;
  }
  return k;
}
int f(int a, int b, int c) {
  struct S s; struct S t; struct S *p = &t;
  int arr[3]; int x = c; int *q = &x;
  int r = 0; int i = 0;
  s.f = a; s.g = b; t.f = b - c; t.g = a * c; p->g = t.g + b;
  arr[0] = c; arr[1] = a + b; arr[2] = b;
  if (s.f > p->f && arr[1] != *q) { r = r + 1; }
  if (!(a < b) || s.g + 1 == p->g - 2) { r = r + 2; }
  if (a * b - c) { r = r + 4; }
  if (!s.f) { r = r + 8; }
  if (p->f >= -1) { r = r + 16; }
  while (i < 3 && arr[i - i] + i >= -4 || *q == 7) {
    r = r + arr[i]; i = i + 1; x = x + 0;
  }
  r = r + h(a, b);
  return r;
}
"""


@pytest.mark.parametrize("a", range(-3, 4))
def test_compound_conditions_agree(a):
    """Conditions built from `&&`, `||`, `!`, arithmetic, `s.f`, `p->f`,
    `a[i]` and `*p`, lowered to atoms, after a store through `p->g`,
    decide as the source's do, and a loop inlined from a callee that
    returns early leaves at the same iteration: the loop heads are the
    source's.  (A return in the loop records no body end in the source.)
    The operands stay in bounds: the normalized program evaluates both
    operands of `&&` and `||`."""
    ast, prog = norm(COMPOUND_CONDITIONS, "f")

    def heads(run):
        return [(span, snap) for span, phase, snap in run.loop_events
                if phase == "head"]
    for b in range(-3, 4):
        for c in range(-3, 4):
            want = run_source(ast, "f", [a, b, c])
            got = run_normalized(prog, {"a": a, "b": b, "c": c})
            assert got.ret == want.ret, (a, b, c)
            assert len(heads(got)) == len(heads(want)), (a, b, c)
            for (s1, v1), (s2, v2) in zip(heads(want), heads(got)):
                assert s1 == s2 and all(v1[k] == v2[k] for k in v1), (a, b, c)
