"""In-process refutation of queries by concrete evaluation.

`refute_queries(script)` evaluates the encoder's `SolverScript` itself,
not text, and returns the queries it shows to be satisfiable, without a
solver, each with its model.  It evaluates only the operators and the
leaf terms that the encoder writes: no `=>` (`definition` takes a guard
apart first), and no `true` or `false`.

Each assertion of `main` defines one constant from constants declared
before it (see `SolverScript.define`); the `distinct` assertions are
checked.  A trial takes the checked assertions and the open queries,
their cone (`SolverScript.cone`) and the base constants these read, in
the order `render()` emits them.  It draws each constant with no
definition there, mostly from small integers and the script's own
integer literals, computes each defined one (or draws it where the guard
fails), and evaluates the checked assertions and each open query.  Any
other constant is either free or defined from earlier constants, so the
assignment extends to it.  When all the evaluated assertions hold, the
assignment is part of a model, and the query is `sat`: the answer a
solver would give.  The cone is taken again only after a query is
refuted, narrowed to the queries still open.

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
    """Drawn and computed values of constants, one trial at a time."""

    def __init__(self, script, rng, pool):
        types = DATATYPES + tuple(script.datatypes)
        self.records = {d.name: d for d in types}
        self.ctors = {d.ctor: len(d.fields) for d in types}
        self.selectors = {sel: (d.ctor, i) for d in types
                          for i, (sel, _) in enumerate(d.fields)}
        self.rng = rng
        self.pool = pool
        self.values = {}

    def trial(self, terms, defined, p_small):
        """A new assignment to the constants of `terms`, taken in order
        (see `_cone`): each constant of `defined` is computed at its
        definition, or drawn where its guard fails, and any other is
        drawn at its declaration."""
        self.p_small = p_small
        self.values = values = {}
        for t in terms:
            sym, guard, value = definition(t) if t.args else (t, None, None)
            if value is None and sym.op in defined:
                continue
            try:
                if value is not None and (guard is None
                                          or self.eval(guard) is True):
                    values[sym.op] = self.eval(value)
                else:
                    values[sym.op] = self.draw(sym.sort)
            except _Stuck:
                values[sym.op] = _STUCK

    def assignment(self):
        return {k: v for k, v in self.values.items() if v is not _STUCK}

    def draw(self, sort):
        if sort == INT:
            return self._int()
        if sort == REAL:
            return Fraction(self._int(), self.rng.choice((1, 2)))
        if sort == BOOL:
            return self.rng.random() < 0.5
        if sort in self.records:
            d = self.records[sort]
            return (d.ctor, *(self.draw(f) for _, f in d.fields))
        if sort.op == "Array" and self._infinite(sort.args[0]):
            return _Array(self.draw(sort.args[1]))
        raise _Stuck(f"sort {sort.text}")

    def _infinite(self, sort):
        if sort in (INT, REAL):
            return True
        d = self.records.get(sort)
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
        if op in ("and", "or"):
            want = op == "or"
            for a in args:
                if (self.eval(a, env) is True) == want:
                    return want
            return not want
        vals = [self.eval(a, env) for a in args]
        if op in _OPS:
            try:
                return _OPS[op](*vals)
            except (TypeError, AttributeError):
                raise _Stuck(f"ill-sorted {op}") from None
        if op in FUNCTIONS:
            return self.eval(FUNCTIONS[op],
                             {p.op: v for p, v in zip(PARAMS, vals)})
        if op in self.ctors and self.ctors[op] == len(vals):
            return (op, *vals)
        if op in self.selectors:
            ctor, i = self.selectors[op]
            if len(vals) != 1 or not isinstance(vals[0], tuple) \
                    or vals[0][0] != ctor:
                raise _Stuck(f"{op} of another constructor")
            return vals[0][1 + i]
        raise _Stuck(f"operator {op}")

    def _atom(self, t, env):
        if env and t in env:
            return env[t]
        if t in self.values:
            if self.values[t] is _STUCK:
                raise _Stuck(t)
            return self.values[t]
        if t[0].isdigit():
            return Fraction(t) if "." in t else int(t)
        raise _Stuck(f"symbol {t}")


def _cone(script, bases, roots):
    """What a trial evaluates to check the terms `roots`: the base
    constants (of `bases`) that they or their cone read, then their cone
    (`SolverScript.cone`), in the order `render` emits them; and the
    constants that cone defines."""
    main = script.cone(roots)
    live = {leaf for t in roots + main for leaf in leaves(t)}
    terms = [t for t in bases if not t.args and t.op in live] + main
    return terms, {definition(t)[0].op for t in main if t.args}


def refute_queries(script):
    """{query name: model} for the queries of a SolverScript that a
    checked assignment satisfies.  A model maps the constants the check
    read to their values; any value of the others extends it.  The other
    queries are left undecided."""
    bases = script.base_terms()
    checked = [t for t in bases if t.args]      # the `distinct`s
    open_queries = dict(script.queries)
    terms, defined = _cone(script, bases,
                           checked + list(open_queries.values()))
    literals = {int(leaf) for t in bases + terms + list(open_queries.values())
                for leaf in leaves(t) if leaf.isdigit()}
    pool = sorted(set(_SMALL) | literals | {-n for n in literals})
    model = _Model(script, random.Random(SEED), pool)
    models = {}
    idle = 0
    for trial in range(TRIALS):
        if not open_queries or idle == PATIENCE:
            break
        idle += 1
        if terms is None:   # a query fell: the cone of the open ones only
            terms, defined = _cone(script, bases,
                                   checked + list(open_queries.values()))
        try:
            model.trial(terms, defined, 0.9 if trial % 2 == 0 else 0.5)
            if not all(model.eval(a) is True for a in checked):
                continue
        except (_Stuck, RecursionError):
            continue
        assignment = None
        for name, query in list(open_queries.items()):
            try:
                if model.eval(query) is True:
                    assignment = assignment or model.assignment()
                    models[name] = assignment
                    del open_queries[name]
                    idle = 0
                    terms = None
            except (_Stuck, RecursionError):
                pass
    return models
