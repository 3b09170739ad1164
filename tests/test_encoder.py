"""Encoder tests: script structure, determinism, and solver-checked
semantic properties of the generated formulas."""

import copy
import importlib.util
import re
import sys
from collections import Counter

import pytest

from invarc.abstraction import abstract_program
from invarc.cli import build_pipeline
from invarc.diagnostics import EncodeError
from invarc.encoder import BOOL, INT, MEM, SolverScript, definition, \
    lit_int, parse_term
from invarc.frontend import parse_translation_unit
from invarc.frontend.classify import classify_constructs
from invarc.normalize import to_simple_assignments
from invarc.pollution import analyze_pollution
from invarc.refute import refute_queries
from invarc.solver import run_solver

from conftest import CORPUS, GOLDEN, ROOT, corpus_entry, corpus_source, \
    reference_encoding, with_queries
from genprog import fp_global_c, loopy_c

CORPUS_NAMES = sorted(p.name for p in CORPUS.glob("*.c"))


def abstract(src, entry):
    """The abstracted program of `src`."""
    ast = parse_translation_unit(src)
    report = classify_constructs(ast)
    prog = to_simple_assignments(ast, report, entry)
    _, _, polluted = analyze_pollution(prog, report)
    return abstract_program(prog, polluted)


def encode(src, entry):
    """The reference encoding of `src`: every statement and variable."""
    return reference_encoding(abstract(src, entry))


def solve(cfg, enc, queries):
    for name, text in queries:
        enc.script.add_query(name, text)
    return run_solver(enc.script, cfg)


# --- structural checks (no solver) -----------------------------------------

def test_preamble_present():
    enc = encode("int f(int a) { return a; }", "f")
    s = enc.script.render()
    assert "(set-logic ALL)" in s
    assert "(declare-datatype Addr" in s
    assert "(declare-datatype Mem" in s
    assert s.index("(set-logic ALL)") < s.index("(declare-datatype Addr")


def test_reemission_byte_identical():
    for path in sorted(CORPUS.glob("*.c")):
        entry = corpus_entry(path.name)
        s1 = encode(path.read_text(), entry).script.render()
        s2 = encode(path.read_text(), entry).script.render()
        assert s1 == s2, path.name


def cli_script(name):
    """The script the CLI renders for a corpus program."""
    return with_queries(corpus_source(name), corpus_entry(name)).render()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_script_matches_golden(name):
    golden = GOLDEN / "smt" / name.replace(".c", ".smt2")
    assert cli_script(name) == golden.read_text(), name


def query_result(enc):
    """Add a query on the returned value, so that the script renders the
    lines that value depends on."""
    enc.script.add_query("ret", f"(= {enc.exit_env['$result'].text} 0)")
    return enc


def test_zero_compared_with_a_pointer_encodes_as_null():
    src = ("int f(int *p, int a) {{ int r = 0; if ({0}) {{ r = a; }}"
           " int z = {1}; return r + z; }}")
    scripts = [query_result(encode(src.format(*cmps), "f")).script.render()
               for cmps in (("p == 0", "0 != p"), ("p == NULL", "NULL != p"))]
    assert scripts[0] == scripts[1]
    assert "(mk-addr 0 0)" in scripts[0]


BRANCH_ON = ("struct S {{ int f; }};\n"
             "int f(struct S *p, int *q, int a, int b) {{\n"
             "  struct S s; s.f = a; int arr[2]; arr[0] = a; arr[1] = b;\n"
             "  int i = b; int r = 0; if ({}) {{ r = 1; }} return r; }}")


def branch_condition(cond):
    """The Bool term on which `r` merges after `if (cond)`, and each
    symbol defined in the script mapped to its guard and value."""
    enc = encode(BRANCH_ON.format(cond), "f")
    defs = {sym.op: (guard, value) for sym, guard, value in
            (definition(t) for t in enc.script.main if t.args)}
    merged = defs[enc.exit_env["r"].op][1]
    assert merged.op == "ite"
    return merged.args[0], defs


@pytest.mark.parametrize("cond", ["p->f > 0", "s.f > 0", "arr[i] > 0",
                                  "*q > 0", "a / b > 3"])
def test_a_condition_reads_defined_symbols(cond):
    """A condition over memory, a member, an element or a quotient is
    encoded, not replaced by a fresh guard: each symbol it reads has a
    definition.  A quotient is bound only where its divisor is not 0."""
    term, defs = branch_condition(cond)
    assert term.sort == BOOL and term.args
    symbols = [x for x in term.args if "@" in x.op]
    assert symbols and all(x.op in defs for x in symbols)
    if "/" in cond:
        (quotient,) = [defs[defs[x.op][1].op] for x in symbols]
        guard, value = quotient
        assert guard is not None and value.op == "cdiv"


def test_ssa_single_assignment():
    enc = query_result(encode("int f(int a) { int x = a; x = x + 1;"
                              " x = x * 2; return x; }", "f"))
    s = enc.script.render()
    defined = re.findall(r"\(declare-const (\S+)", s)
    assert len(defined) == len(set(defined))
    xs = [d for d in defined if d.startswith("x@")]
    assert len(xs) >= 3


def test_base_addresses_distinct_and_nonzero():
    enc = encode("int f() { int a; int b; int* p = &a; int* q = &b;"
                 " *p = 1; *q = 2; return a + b; }", "f")
    s = enc.script.render()
    m = re.search(r"\(assert \(distinct 0 ([^)]*)\)\)", s)
    assert m and "base$a" in m.group(1) and "base$b" in m.group(1)


def test_guarded_division():
    enc = query_result(
        encode("int f(int a, int b) { int q = a / b; return q; }", "f"))
    s = enc.script.render()
    assert "(=> (distinct" in s and "cdiv" in s


def test_loop_record_shape():
    enc = encode("int f(int n) { int i = 0; while (i < n) { i = i + 1; }"
                 " return i; }", "f")
    (lr,) = enc.loops
    assert MEM in lr.pre
    for envd in (lr.pre, lr.head, lr.bend):
        assert "i" in envd and "n" in envd
    # Unmodified variable keeps one symbol across all three points.
    assert lr.pre["n"].text == lr.head["n"].text == lr.bend["n"].text
    # A modified variable is havocked at the head: new symbol.
    assert lr.pre["i"].text != lr.head["i"].text
    # ... and it stays at the exit, where the loop's writes are merged.
    assert enc.exit_env["i"].text != lr.head["i"].text


def test_entry_env_covers_scalars():
    enc = encode("int g;\nint f(int a) { int x = a + g; return x; }", "f")
    for v in ("a", "g", "x"):
        assert v in enc.entry_env and v in enc.exit_env


def test_points_track_every_statement():
    ab = abstract("int f(int a) { int x = a + 1; int y = x * 2;\n"
                  " if (a > 0) { y = 1; } else { x = 2; }\n"
                  " while (x < y) { x = x + 1; } return y; }", "f")
    enc = reference_encoding(ab)
    ids = [id(s) for s in enc.points]
    assert len(set(ids)) == len(ids) == sum(1 for _ in ab.program.walk())
    assert set(ids) == {id(s) for s in ab.program.walk()}
    assert all(s.span is not None for s in enc.points)


def test_a_branch_merges_the_symbols_at_the_ends_of_its_arms():
    enc = encode("int f(int a) { int x = a; int y = 0;\n"
                 " if (a > 0) { x = 1; y = 1; } else { x = 2; }\n"
                 " return x + y; }", "f")
    defs = {}
    for t in enc.script.main:
        if t.args:
            sym, _, val = definition(t)
            defs[sym] = val
    y = defs[enc.exit_env["y"]]
    assert y.op == "ite" and y.args[0].op == ">"
    _, y_then, y_else = y.args
    assert defs[y_then] == lit_int(1)
    assert defs[y_else] == lit_int(0)   # the else arm starts from `y = 0`
    x = enc.exit_env["x"]
    x_before = next(s for s in defs if s.op.startswith("x@"))
    assert defs[x_before] == enc.entry_env["a"]
    _, x_then, x_else = defs[x].args
    assert len({x_before, x_then, x_else, x}) == 4


def _perfbench_workloads():
    """The benchmark's program generators, loaded from their file."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("generator, entry, sizes", [
    ("branch_loop_c", "bl", (50, 100, 200, 400)),
    ("straight_line_c", "sl", (100, 200, 400, 800)),
])
def test_encoder_work_grows_linearly(generator, entry, sizes):
    """Env entries copied into snapshots, names visited by merges, and
    the slicer's statement visits, name pops and writer visits, at most
    2.3 times per doubling of the program: an encoder that copies its
    whole environment per statement or per branch, or a slicer that
    rescans every statement until nothing changes, grows faster."""
    make = getattr(_perfbench_workloads(), generator)
    work = [build_pipeline(make(1, n), entry)[-1].work for n in sizes]
    for n, a, b in zip(sizes, work, work[1:]):
        assert b <= 2.3 * a, (generator, n, work)


# --- slicing to the cone of influence of the queries -----------------------

VERSIONED = re.compile(r"[^\s()]*@[^\s()]*")


def slicing_programs():
    for name in CORPUS_NAMES:
        yield name, corpus_source(name), corpus_entry(name)
    for seed in range(10):
        yield f"loopy-{seed}", loopy_c(seed), "gen"
        yield f"fp-global-{seed}", fp_global_c(seed), "gen"


def unsliced(script):
    """A copy of `script` whose cone, of any roots, is the whole of
    `main`."""
    whole = copy.copy(script)
    whole.cone = lambda roots=None: list(script.main)
    return whole


def command(t):
    """The line `render` writes for a term of `main`."""
    return f"(assert {t.text})" if t.args \
        else f"(declare-const {t.op} {t.sort.text})"


def owner(t):
    """The symbol a term of `main` declares or defines."""
    return definition(t)[0].op if t.args else t.op


def test_sliced_script_is_closed():
    dropped_total = 0
    for label, src, entry in slicing_programs():
        script = with_queries(src, entry)
        definitions = Counter(owner(t) for t in script.main if t.args)
        assert max(definitions.values(), default=0) <= 1, label
        lines = script.render().splitlines()
        declared = set()
        for line in lines:
            used = VERSIONED.findall(line)
            m = re.match(r"\(declare-const (\S+) ", line)
            if m and "@" in m.group(1):
                declared.add(m.group(1))
                used = used[1:]
            for sym in used:
                assert sym in declared, (label, sym, "used before declared")
        dropped = script._declared - declared
        for line in lines:
            assert not dropped.intersection(VERSIONED.findall(line)), label
        # a kept symbol keeps its definition
        kept = set(lines)
        for t in script.main:
            assert owner(t) in dropped or command(t) in kept, (label, t)
        dropped_total += len(dropped)
    assert dropped_total > 100


def test_slicing_refutes_the_same_queries():
    refuted = 0
    for name in CORPUS_NAMES:
        script = with_queries(corpus_source(name), corpus_entry(name))
        sliced = set(refute_queries(script))
        assert sliced == set(refute_queries(unsliced(script))), name
        refuted += len(sliced)
    assert refuted > 0


def test_a_second_definition_is_an_encode_error():
    script = SolverScript()
    x = script.declare("x@1", INT)
    script.define(x, lit_int(0))
    with pytest.raises(EncodeError, match="x@1 defined twice"):
        script.define(x, lit_int(1))


def test_the_cone_of_roots_closes_over_definitions_and_guards():
    s = SolverScript()
    a, b, g, c = (s.declare(n, INT) for n in "abgc")
    s.define(c, parse_term("(+ a 1)"), guard=parse_term("(not (= g 0))"))
    d = s.declare("d", INT)
    s.define(d, b)
    def_c, def_d = s.main[4], s.main[6]
    assert s.cone([parse_term("(> c 0)")]) == [a, g, c, def_c]
    assert s.cone([parse_term("(< d c)")]) == [a, b, g, c, def_c, d, def_d]
    assert s.cone([parse_term("(> 1 0)")]) == []
    assert s.cone() == []
    s.add_query("q", "(= d 2)")
    assert s.cone() == [b, d, def_d]
    for name in CORPUS_NAMES:
        script = with_queries(corpus_source(name), corpus_entry(name))
        assert script.cone() == script.cone([q for _, q in script.queries])


# --- solver-checked semantic properties ------------------------------------

def test_arithmetic_and_frame(solver_cfg):
    """One batched script: trunc-division semantics, branch merge,
    store/select round-trip, and the frame property of unrelated stores."""
    src = ("int g1; int g2;\n"
           "int f(int a, int b, int w) {\n"
           "  int* p = &g1;\n"
           "  g2 = 5;\n"
           "  *p = a;\n"
           "  int q = 0;\n"
           "  if (b != 0) { q = a / b; }\n"
           "  int m = 0;\n"
           "  if (w) { m = 1; } else { m = 2; }\n"
           "  return q;\n"
           "}")
    enc = encode(src, "f")
    ee, xe = enc.entry_env, enc.exit_env
    queries = [
        # -7 / 2 truncates toward zero.
        ("trunc", "(not (= (cdiv (- 7) 2) (- 3)))"),
        # Store through p=&g1 then read back gives a.
        ("roundtrip", f"(not (= {xe['g1'].text} {ee['a'].text}))"),
        # The store to g1 does not disturb g2 (frame property).
        ("frame", f"(not (= {xe['g2'].text} 5))"),
        # Branch merge: m is 1 or 2 at exit.
        ("merge", f"(not (or (= {xe['m'].text} 1) (= {xe['m'].text} 2)))"),
        # Guarded division leaves q unconstrained only when b = 0: with
        # b = 2, a = 7 the result is forced.
        ("divforced",
         f"(not (=> (and (= {ee['a'].text} 7) (= {ee['b'].text} 2)) "
         f"(= {xe['q'].text} 3)))"),
    ]
    out = solve(solver_cfg, enc, queries)
    assert all(out[n] == "unsat" for n, _ in queries), out


def test_mirror_consistency(solver_cfg):
    """An address-taken scalar and its memory cell always agree."""
    src = ("int f(int a) { int v = a; int* p = &v; *p = *p + 1;"
           " int r = v; return r; }")
    enc = encode(src, "f")
    ee, xe = enc.entry_env, enc.exit_env
    out = solve(solver_cfg, enc, [
        ("mirror",
         f"(not (= {xe['r'].text} (+ {ee['a'].text} 1)))"),
    ])
    assert out["mirror"] == "unsat"


def test_loop_is_overapproximate(solver_cfg):
    """The one-iteration loop encoding must allow the true exit state
    (sat on consistency) but not prove a false exit bound (sat on its
    negation)."""
    enc = encode("int f() { int i = 0; while (i < 3) { i = i + 1; }"
                 " return i; }", "f")
    exit_i = enc.exit_env["i"].text     # the loop's exit: nothing follows
    out = solve(solver_cfg, enc, [
        # i = 3 at exit is a possible model.
        ("allows-true", f"(= {exit_i} 3)"),
        # The encoding cannot prove i <= 3 at exit (head is havocked).
        ("no-false-bound", f"(not (<= {exit_i} 100))"),
    ])
    assert out["allows-true"] == "sat"
    assert out["no-false-bound"] == "sat"


def test_function_call_memory_visibility(solver_cfg):
    """A write performed inside a called function is visible after the
    call through the threaded memory record."""
    src = ("int g;\n"
           "void setg(int v) { g = v; }\n"
           "int f(int a) { setg(a + 1); int r = g; return r; }")
    enc = encode(src, "f")
    ee, xe = enc.entry_env, enc.exit_env
    out = solve(solver_cfg, enc, [
        ("postcall",
         f"(not (= {xe['r'].text} (+ {ee['a'].text} 1)))"),
    ])
    assert out["postcall"] == "unsat"


def test_havocked_variable_unconstrained(solver_cfg):
    src = ("int f(int a) { int x = mystery(); int y = a + 1;"
           " return y; }")
    enc = encode(src, "f")
    xe = enc.exit_env
    out = solve(solver_cfg, enc, [
        ("havoc-free", f"(= {xe['x'].text} 123456)"),
        ("clean-still-bound",
         f"(not (= {xe['y'].text} (+ {enc.entry_env['a'].text} 1)))"),
    ])
    assert out["havoc-free"] == "sat"
    assert out["clean-still-bound"] == "unsat"
