"""In-process refutation of queries by concrete evaluation.

`refute_queries(script)` evaluates the encoder's `SolverScript` itself,
not text: exactly the terms `render()` emits (the base addresses with
their `distinct` assertions, and the cone of `main`) and each query's
asserted term.  It returns the queries it shows to be satisfiable,
without a solver, each with its model.

Each assertion of `main` defines one constant from constants declared
before it (see `SolverScript.define`); the `distinct` assertions are
checked.  Each trial draws values for free constants, mostly from small
integers and the script's own integer literals, computes defined ones
from their definitions, and evaluates the checked assertions and each
open query's assertion.  Only the constants these depend on are
evaluated.  Any other constant is either free or defined from earlier
constants, so the assignment extends to it.  When all the evaluated
assertions hold, the assignment is part of a model, and the query is
`sat`: the answer a solver would give.

`detect_invariants` uses it only when there is no solver.  It never
answers `unsat`, and it answers `sat` only with a model it has checked,
so every answer is one a solver would give, and it never proves an
invariant.  Whatever it cannot evaluate (division by zero, an operator
the encoder does not emit, a term nested too deeply) leaves the query
undecided.  Draws come from a fixed seed, so a script is always decided
the same way.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .encoder import BOOL, DATATYPES, FUNCTIONS, INT, PARAMS, REAL, \
    definition, leaves

TRIALS = 128
PATIENCE = 64            # trials in a row that refute nothing: stop
SEED = 0
_SMALL = (-2, -1, 0, 1, 2, 3)


class _Stuck(Exception):
    """The evaluator cannot decide: the query is left undecided."""


_STUCK = object()        # the value of a constant that could not be computed


class _Array:
    """An array value: a default plus finitely many stored cells.  Only
    arrays over infinite key sorts are drawn, so two arrays with
    different defaults differ at some key."""

    __slots__ = ("default", "cells")

    def __init__(self, default, cells=None):
        self.default = default
        self.cells = cells or {}

    def select(self, key):
        return self.cells.get(key, self.default)

    def store(self, key, value):
        cells = dict(self.cells)
        cells[key] = value
        return _Array(self.default, cells)

    def __eq__(self, other):
        if not isinstance(other, _Array):
            return NotImplemented
        keys = self.cells.keys() | other.cells.keys()
        return self.default == other.default and all(
            self.select(k) == other.select(k) for k in keys)

    __hash__ = None


class _Script:
    """The declarations, definitions, checked assertions and queries of a
    SolverScript, as `render()` would emit them."""

    def __init__(self, script):
        types = DATATYPES + tuple(script.datatypes)
        self.records = {d.name: d for d in types}
        self.ctors = {d.ctor: len(d.fields) for d in types}
        self.selectors = {sel: (d.ctor, i) for d in types
                          for i, (sel, _) in enumerate(d.fields)}
        bases, main = script.base_terms(), script.cone()
        terms = bases + main
        # constant -> sort, and -> declaration index
        self.sorts = {t.op: t.sort for t in terms if not t.args}
        self.order = {c: i for i, c in enumerate(self.sorts)}
        self.checked = [t for t in bases if t.args]    # the `distinct`s
        self.defs = {}           # constant -> (guard or None, term)
        self.deps = {}           # constant -> constants its definition reads
        for t in main:
            if t.args:
                sym, guard, value = definition(t)
                self.defs[sym.op] = (guard, value)
                self.deps[sym.op] = self.refs(t) - {sym.op}
        self.queries = [(name, q, self.refs(q))  # + the constants q reads
                        for name, q in script.queries]
        terms += [q for _, q in script.queries]
        self.checked_refs = set().union(*map(self.refs, self.checked))
        self.literals = {int(leaf) for t in terms for leaf in leaves(t)
                         if leaf.isdigit()}

    def refs(self, term):
        """The constants `term` reads."""
        return {leaf for leaf in leaves(term) if leaf in self.sorts}

    def cone(self, roots):
        """`roots` and every constant their definitions read, in
        declaration order."""
        seen, todo = set(roots), list(roots)
        while todo:
            for d in self.deps.get(todo.pop(), ()):
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return sorted(seen, key=self.order.__getitem__)


def _div(a, b):
    if b == 0:
        raise _Stuck("division by zero")
    r = a % abs(b)
    return (a - r) // b


def _real_div(a, b):
    if b == 0:
        raise _Stuck("division by zero")
    return Fraction(a) / b


def _chain(test):
    return lambda *v: all(test(a, b) for a, b in zip(v, v[1:]))


def _distinct(*v):
    return all(v[i] != v[j] for i in range(len(v))
               for j in range(i + 1, len(v)))


_OPS = {
    "=": _chain(lambda a, b: a == b),
    "distinct": _distinct,
    "not": lambda a: not a,
    "+": lambda *v: sum(v),
    "-": lambda *v: -v[0] if len(v) == 1 else v[0] - sum(v[1:]),
    "*": lambda *v: math.prod(v),
    "div": _div,
    "/": _real_div,
    "abs": abs,
    "to_real": Fraction,
    "<": _chain(lambda a, b: a < b),
    "<=": _chain(lambda a, b: a <= b),
    ">": _chain(lambda a, b: a > b),
    ">=": _chain(lambda a, b: a >= b),
    "select": lambda a, k: a.select(k),
    "store": lambda a, k, v: a.store(k, v),
}


class _Model:
    """One assignment: drawn free constants, computed defined ones."""

    def __init__(self, script, rng, pool, p_small):
        self.s = script
        self.rng = rng
        self.pool = pool
        self.p_small = p_small
        self.values = {}

    def define(self, names):
        """Evaluate `names` in declaration order, so that each definition
        finds the constants it reads already evaluated."""
        for name in names:
            if name not in self.values:
                try:
                    self.values[name] = self._compute(name)
                except _Stuck:
                    self.values[name] = _STUCK

    def const(self, name):
        if name not in self.values:
            self.values[name] = self._compute(name)
        value = self.values[name]
        if value is _STUCK:
            raise _Stuck(name)
        return value

    def _compute(self, name):
        guard, term = self.s.defs.get(name, (None, None))
        if term is not None and (guard is None or self.eval(guard) is True):
            return self.eval(term)
        return self.draw(self.s.sorts[name])

    def assignment(self):
        return {k: v for k, v in self.values.items() if v is not _STUCK}

    def draw(self, sort):
        if sort == INT:
            return self._int()
        if sort == REAL:
            return Fraction(self._int(), self.rng.choice((1, 2)))
        if sort == BOOL:
            return self.rng.random() < 0.5
        if sort in self.s.records:
            d = self.s.records[sort]
            return (d.ctor, *(self.draw(f) for _, f in d.fields))
        if sort.op == "Array" and self._infinite(sort.args[0]):
            return _Array(self.draw(sort.args[1]))
        raise _Stuck(f"sort {sort.text}")

    def _infinite(self, sort):
        if sort in (INT, REAL):
            return True
        d = self.s.records.get(sort)
        return d is not None and any(self._infinite(f) for _, f in d.fields)

    def _int(self):
        if self.rng.random() < self.p_small:
            return self.rng.choice(self.pool)
        return self.rng.randint(-10_000, 10_000)

    def eval(self, t, env=None):
        op, args = t.op, t.args
        if not args:
            return self._atom(op, env)
        if op == "ite":
            return self.eval(args[1] if self.eval(args[0], env) is True
                             else args[2], env)
        if op in ("and", "or", "=>"):
            return self._connective(op, args, env)
        vals = [self.eval(a, env) for a in args]
        if op in _OPS:
            try:
                return _OPS[op](*vals)
            except (TypeError, AttributeError):
                raise _Stuck(f"ill-sorted {op}") from None
        if op in FUNCTIONS:
            return self.eval(FUNCTIONS[op],
                             {p.op: v for p, v in zip(PARAMS, vals)})
        if op in self.s.ctors and self.s.ctors[op] == len(vals):
            return (op, *vals)
        if op in self.s.selectors:
            ctor, i = self.s.selectors[op]
            if len(vals) != 1 or not isinstance(vals[0], tuple) \
                    or vals[0][0] != ctor:
                raise _Stuck(f"{op} of another constructor")
            return vals[0][1 + i]
        raise _Stuck(f"operator {op}")

    def _connective(self, op, args, env):
        if op == "=>":
            if len(args) != 2:
                raise _Stuck("=> of more than two")
            return self.eval(args[0], env) is not True \
                or self.eval(args[1], env) is True
        want = op == "or"
        for a in args:
            if (self.eval(a, env) is True) == want:
                return want
        return not want

    def _atom(self, t, env):
        if env and t in env:
            return env[t]
        if t in self.s.sorts:
            return self.const(t)
        if t in ("true", "false"):
            return t == "true"
        if t[0].isdigit():
            return Fraction(t) if "." in t else int(t)
        raise _Stuck(f"symbol {t}")


def refute_queries(script):
    """{query name: model} for the queries of a SolverScript that a
    checked assignment satisfies.  A model maps the constants the check
    read to their values; any value of the others extends it.  The other
    queries are left undecided."""
    script = _Script(script)
    rng = random.Random(SEED)
    literals = script.literals
    pool = sorted(set(_SMALL) | literals | {-n for n in literals})
    open_queries = {name: (query, refs)
                    for name, query, refs in script.queries}
    models = {}
    idle = 0
    for trial in range(TRIALS):
        if not open_queries or idle == PATIENCE:
            break
        idle += 1
        model = _Model(script, rng, pool, 0.9 if trial % 2 == 0 else 0.5)
        # open queries only: a narrower cone than the script's slice
        roots = set(script.checked_refs)
        for _, refs in open_queries.values():
            roots |= refs
        try:
            model.define(script.cone(roots))
            if not all(model.eval(a) is True for a in script.checked):
                continue
        except (_Stuck, RecursionError):
            continue
        assignment = None
        for name, (query, _) in list(open_queries.items()):
            try:
                if model.eval(query) is True:
                    assignment = assignment or model.assignment()
                    models[name] = assignment
                    del open_queries[name]
                    idle = 0
            except (_Stuck, RecursionError):
                pass
    return models
