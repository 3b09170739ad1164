"""Sort and scope check of the encoder's scripts, without a solver.

Every term of `main`, and every query's asserted term, is checked
against the signatures of the SMT-LIB 2.6 theories the encoder uses
(Ints, Reals, ArraysEx, datatypes): arithmetic and comparisons take
arguments of one sort, Int or Real, which cvc5 demands and z3 does not;
`ite` a Bool condition and two arms of one sort; `=` and `distinct`
arguments of one sort; `select` and `store` keys of the array's key
sort (Addr for memory); `mk-addr` Int fields; `to_real` an Int.  Each
term's own sort, a query's and its leaves' included, must be the one
its signature or its symbol's declaration gives, and every symbol must
be declared before the entry that reads it; a definition may read only
symbols declared before the one it defines.  Every sort the script
claims, a datatype's and its fields' included, must be a sort term: a
`Term` with no sort of its own whose arguments are sort terms."""

import pytest

from invarc.encoder import BOOL, DATATYPES, FUNCTIONS, INT, PARAMS, REAL, \
    Datatype, SolverScript, Term, array_sort, definition, leaves, \
    parse_term, struct_sort

from conftest import CORPUS, corpus_entry, corpus_source, with_queries
from test_smt_digests import digest_programs

ARITH = {"+", "-", "*"}
COMPARE = {"<", "<=", ">", ">="}
LOGIC = {"and", "or", "=>", "not"}
INT_FUNCTIONS = {"div", "abs", *FUNCTIONS}


class IllSorted(Exception):
    pass


def sort_term(sort):
    """`sort` itself, when it is a sort term; raises IllSorted."""
    if not isinstance(sort, Term) or sort.sort is not None:
        raise IllSorted(f"{sort!r} is not a sort term")
    for a in sort.args:
        sort_term(a)
    return sort


def texts(sorts):
    return " ".join(s.text for s in sorts)


def array_sorts(sort):
    if sort.op != "Array" or len(sort.args) != 2:
        raise IllSorted(f"{sort.text} is not an array sort")
    return sort.args


class Checker:
    def __init__(self, script):
        self.types = DATATYPES + tuple(script.datatypes)
        self.ctors = {d.ctor: (d.name, [s for _, s in d.fields])
                      for d in self.types}
        self.selectors = {sel: (d.name, s) for d in self.types
                          for sel, s in d.fields}
        self.declared = {}       # symbol -> (sort, declaration index)

    def datatype_problems(self):
        problems = []
        for d in self.types:
            for sort in (d.name, *(s for _, s in d.fields)):
                try:
                    sort_term(sort)
                except IllSorted as e:
                    problems.append(f"datatype {d.ctor}: {e}")
        return problems

    def declare(self, t):
        assert t.op not in self.declared, f"{t.op} declared twice"
        self.declared[t.op] = (sort_term(t.sort), len(self.declared))

    def sort(self, t):
        """The sort `t` has by the signatures; raises IllSorted."""
        if not t.args:
            s = self.leaf(t.op)
        else:
            s = self.apply(t.op, [self.sort(a) for a in t.args])
        if t.sort is not None and sort_term(t.sort) != s:
            raise IllSorted(f"{t.text} claims {t.sort.text}, is {s.text}")
        return s

    def leaf(self, op):
        if op in self.declared:
            return self.declared[op][0]
        if op.isdigit():
            return INT
        if op.replace(".", "", 1).isdigit():
            return REAL
        if op in ("true", "false"):
            return BOOL
        raise IllSorted(f"{op} is not declared")

    def apply(self, op, args):
        def same(allowed=None):
            if len(set(args)) != 1 or (allowed and args[0] not in allowed):
                raise IllSorted(f"{op} of {texts(args)}")
            return args[0]

        if op in ARITH:
            return same({INT, REAL})
        if op in COMPARE:
            same({INT, REAL})
            return BOOL
        if op == "/":
            return same({REAL})
        if op in INT_FUNCTIONS:
            return same({INT})
        if op in ("=", "distinct"):
            same()
            return BOOL
        if op in LOGIC:
            same({BOOL})
            return BOOL
        if op == "ite":
            if len(args) != 3 or args[0] != BOOL or args[1] != args[2]:
                raise IllSorted(f"ite of {texts(args)}")
            return args[1]
        if op == "to_real":
            if args != [INT]:
                raise IllSorted(f"to_real of {texts(args)}")
            return REAL
        if op in ("select", "store"):
            key, value = array_sorts(args[0])
            want = [args[0], key] + ([value] if op == "store" else [])
            if args != want:
                raise IllSorted(f"{op} of {texts(args)}")
            return value if op == "select" else args[0]
        if op in self.ctors:
            name, fields = self.ctors[op]
            if args != fields:
                raise IllSorted(f"{op} of {texts(args)}")
            return name
        if op in self.selectors:
            name, field = self.selectors[op]
            if args != [name]:
                raise IllSorted(f"{op} of {texts(args)}")
            return field
        raise IllSorted(f"unknown operator {op}")


def check(script):
    """Every problem of `script`'s sorts, terms and queries, as
    messages."""
    c = Checker(script)
    problems = c.datatype_problems()
    for t in script.base_terms() + script.main:
        if not t.args:
            try:
                c.declare(t)
            except IllSorted as e:
                problems.append(f"declaration of {t.op}: {e}")
            continue
        try:
            if c.sort(t) != BOOL:
                problems.append(f"asserted non-Bool {t.text}")
            if t.op != "distinct":
                sym, _, _ = definition(t)
                for leaf in set(leaves(t)) & c.declared.keys():
                    if c.declared[leaf][1] > c.declared[sym.op][1]:
                        problems.append(f"{sym.op} defined from {leaf}")
        except IllSorted as e:
            problems.append(str(e))
    for name, q in script.queries:
        try:
            if c.sort(q) != BOOL:
                problems.append(f"query {name} is not Bool")
        except IllSorted as e:
            problems.append(f"query {name}: {e}")
    return problems


# doubles mixed with ints, structs, pointers, an array and a call
# through a pointer, which the corpus and the generators barely reach
PROBE = """
struct P { int x; double y; };
double g;
int t(int v) { return v + 1; }
int u(int v) { return v - 1; }
int f(int a, double d, int *p, struct P *q) {
  struct P s;
  int (*fp)(int) = t;
  s.x = a;
  s.y = d + a;
  double e = d * 2 + a;
  int arr[3];
  arr[1] = a;
  int *r = &arr[0];
  if (d < a && p != 0) { *p = a; g = g + 1; fp = u; }
  if (e == a || !(d > 1)) { a = a / 2 + a % 3; }
  if (q->x > 0) { q->y = q->y * d; }
  int k = 0;
  while (k < a) { k = k + 1; e = e - 1; *r = fp(k); }
  return a + r[1];
}
"""
PROGRAMS = {p.name: (corpus_source(p.name), corpus_entry(p.name))
            for p in sorted(CORPUS.glob("*.c"))}
PROGRAMS["probe"] = (PROBE, "f")
PROGRAMS.update((f"{gen}-{seed}", (src, "gen"))
                for gen, seed, src in digest_programs())


@pytest.mark.parametrize("label", list(PROGRAMS))
def test_scripts_are_well_sorted_and_scoped(label):
    assert check(with_queries(*PROGRAMS[label])) == []


def test_functions_are_well_sorted():
    c = Checker(SolverScript())
    for p in PARAMS:
        c.declare(p)
    for body in FUNCTIONS.values():
        assert c.sort(body) == INT


def test_the_checker_finds_mixed_sorts():
    c = Checker(SolverScript())
    for bad in ["(+ 1 1.0)", "(ite 1 2 3)", "(= 1 (mk-addr 0 0))",
                "(select 1 2)", "(mk-addr 0 0.0)", "(to_real 1.0)", "(f 1)",
                "(< x 1)"]:
        with pytest.raises(IllSorted):
            c.sort(parse_term(bad))


def test_the_checker_reads_the_sorts_a_query_claims():
    s = SolverScript()
    x = s.declare("x@0", INT)
    real_x = Term("x@0", (), REAL)
    s.add_query("leaf", Term("=", (real_x, real_x), BOOL))
    s.add_query("sort", Term("=", (x, x), INT))
    assert check(s) == ["query leaf: x@0 claims Real, is Int",
                        "query sort: (= x@0 x@0) claims Int, is Bool"]


def test_the_checker_finds_sorts_that_are_not_terms():
    s = SolverScript()
    s.datatypes.append(
        Datatype(struct_sort("P"), "mk$P", (("T$P$x", "Int"),)))
    s.declare("t@0", "Int")
    s.declare("a@0", array_sort(INT, Term("Int", (), "Int")))
    x = s.declare("x@0", INT)
    s.add_query("text", Term("=", (x, x), "Bool"))
    assert [p.split(":")[0] for p in check(s)] == [
        "datatype mk$P", "declaration of t@0", "declaration of a@0",
        "query text"]
