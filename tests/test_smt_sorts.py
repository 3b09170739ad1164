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
symbols declared before the one it defines."""

import pytest

from invarc.encoder import DATATYPES, FUNCTIONS, PARAMS, SolverScript, \
    Term, definition, leaves, parse_term

from conftest import CORPUS, corpus_entry, corpus_source, with_queries
from test_smt_digests import digest_programs

ARITH = {"+", "-", "*"}
COMPARE = {"<", "<=", ">", ">="}
LOGIC = {"and", "or", "=>", "not"}
INT_FUNCTIONS = {"div", "abs", *FUNCTIONS}


class IllSorted(Exception):
    pass


def array_sorts(sort):
    t = parse_term(sort)
    if t.op != "Array" or len(t.args) != 2:
        raise IllSorted(f"{sort} is not an array sort")
    return t.args[0].text, t.args[1].text


class Checker:
    def __init__(self, script):
        types = DATATYPES + tuple(script.datatypes)
        self.ctors = {d.ctor: (d.name, [s for _, s in d.fields])
                      for d in types}
        self.selectors = {sel: (d.name, s) for d in types
                          for sel, s in d.fields}
        self.declared = {}       # symbol -> (sort, declaration index)

    def declare(self, t):
        assert t.op not in self.declared, f"{t.op} declared twice"
        self.declared[t.op] = (t.sort, len(self.declared))

    def sort(self, t):
        """The sort `t` has by the signatures; raises IllSorted."""
        if not t.args:
            s = self.leaf(t.op)
        else:
            s = self.apply(t.op, [self.sort(a) for a in t.args])
        if t.sort is not None and t.sort != s:
            raise IllSorted(f"{t.text} claims {t.sort}, is {s}")
        return s

    def leaf(self, op):
        if op in self.declared:
            return self.declared[op][0]
        if op.isdigit():
            return "Int"
        if op.replace(".", "", 1).isdigit():
            return "Real"
        if op in ("true", "false"):
            return "Bool"
        raise IllSorted(f"{op} is not declared")

    def apply(self, op, args):
        def same(allowed=None):
            if len(set(args)) != 1 or (allowed and args[0] not in allowed):
                raise IllSorted(f"{op} of {args}")
            return args[0]

        if op in ARITH:
            return same({"Int", "Real"})
        if op in COMPARE:
            same({"Int", "Real"})
            return "Bool"
        if op == "/":
            return same({"Real"})
        if op in INT_FUNCTIONS:
            return same({"Int"})
        if op in ("=", "distinct"):
            same()
            return "Bool"
        if op in LOGIC:
            same({"Bool"})
            return "Bool"
        if op == "ite":
            if len(args) != 3 or args[0] != "Bool" or args[1] != args[2]:
                raise IllSorted(f"ite of {args}")
            return args[1]
        if op == "to_real":
            if args != ["Int"]:
                raise IllSorted(f"to_real of {args}")
            return "Real"
        if op in ("select", "store"):
            key, value = array_sorts(args[0])
            want = [args[0], key] + ([value] if op == "store" else [])
            if args != want:
                raise IllSorted(f"{op} of {args}")
            return value if op == "select" else args[0]
        if op in self.ctors:
            name, fields = self.ctors[op]
            if args != fields:
                raise IllSorted(f"{op} of {args}")
            return name
        if op in self.selectors:
            name, field = self.selectors[op]
            if args != [name]:
                raise IllSorted(f"{op} of {args}")
            return field
        raise IllSorted(f"unknown operator {op}")


def check(script):
    """Every problem of `script`'s terms and queries, as messages."""
    problems = []
    c = Checker(script)
    for t in script.base_terms() + script.main:
        if not t.args:
            c.declare(t)
            continue
        try:
            if c.sort(t) != "Bool":
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
            if c.sort(q) != "Bool":
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
        assert c.sort(body) == "Int"


def test_the_checker_finds_mixed_sorts():
    c = Checker(SolverScript())
    for bad in ["(+ 1 1.0)", "(ite 1 2 3)", "(= 1 (mk-addr 0 0))",
                "(select 1 2)", "(mk-addr 0 0.0)", "(to_real 1.0)", "(f 1)",
                "(< x 1)"]:
        with pytest.raises(IllSorted):
            c.sort(parse_term(bad))


def test_the_checker_reads_the_sorts_a_query_claims():
    s = SolverScript()
    x = s.declare("x@0", "Int")
    real_x = Term("x@0", (), "Real")
    s.add_query("leaf", Term("=", (real_x, real_x), "Bool"))
    s.add_query("sort", Term("=", (x, x), "Int"))
    assert check(s) == ["query leaf: x@0 claims Real, is Int",
                        "query sort: (= x@0 x@0) claims Int, is Bool"]
