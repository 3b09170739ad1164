"""In-process refutation of queries by concrete evaluation.

`refute_queries(text)` reads an SMT-LIB 2 script as the encoder renders
it and returns the queries it shows to be satisfiable, without a solver,
each with its model.

A top-level `(= c t)`, or `(=> g (= c t))`, whose terms mention only
constants declared before `c`, defines `c`.  Every other top-level
assertion is checked.  Each trial draws values for free constants, mostly
from small integers and the script's own integer literals, computes
defined ones from their definitions, and evaluates the checked
assertions and each open query's assertions.  Only the constants these
depend on are evaluated.  Any other constant is either free or defined
from earlier constants, so the assignment extends to it.  When all the
evaluated assertions hold, the assignment is part of a model, and the
query is `sat`: the answer a solver would give.

`detect_invariants` uses it only when there is no solver.  It never
answers `unsat`, and it answers `sat` only with a model it has checked,
so every answer is one a solver would give, and it never proves an
invariant.  Whatever it cannot evaluate (division by zero, a command or
operator the encoder does not emit, a term nested too deeply) leaves the
query undecided.  Draws come from a fixed seed, so a script is always
decided the same way.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

TRIALS = 128
PATIENCE = 64            # trials in a row that refute nothing: stop
SEED = 0
_SMALL = (-2, -1, 0, 1, 2, 3)
_TOKEN = re.compile(r'\s+|;[^\n]*|(\(|\)|"[^"]*"|[^\s()";]+)')
_NUMERAL = re.compile(r"(?<=[\s(])\d+(?=[\s)])")


class _Stuck(Exception):
    """The evaluator cannot decide: the query is left undecided."""


_STUCK = object()        # the value of a constant that could not be computed


def _parse(text):
    """SMT-LIB text to nested lists of atom strings."""
    stack = [[]]
    for m in _TOKEN.finditer(text):
        tok = m.group(1)
        if tok is None:
            continue
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise _Stuck("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise _Stuck("unbalanced '('")
    return stack[0]


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
    """The declarations, definitions, checked assertions and queries."""

    def __init__(self, commands):
        self.sorts = {}          # constant -> sort, in declaration order
        self.order = {}          # constant -> declaration index
        self.funs = {}           # define-fun name -> (params, body)
        self.fun_refs = {}       # define-fun name -> constants it reads
        self.records = {}        # datatype -> (constructor, field sorts)
        self.ctors = {}          # constructor -> number of fields
        self.selectors = {}      # selector -> (constructor, index)
        self.defs = {}           # constant -> (guard or None, term)
        self.deps = {}           # constant -> constants its definition reads
        self.checked = []        # top-level assertions that define nothing
        self.queries = []        # (name, [assertion], constants read)
        depth, name, local = 0, None, []
        for cmd in commands:
            head = cmd[0] if cmd else None
            if head == "set-logic":
                continue
            if head == "declare-datatype":
                self._datatype(cmd[1], cmd[2])
            elif head == "define-fun":
                self.funs[cmd[1]] = ([p[0] for p in cmd[2]], cmd[4])
                self.fun_refs[cmd[1]] = self.refs(cmd[4])
            elif head == "declare-const":
                self.order[cmd[1]] = len(self.sorts)
                self.sorts[cmd[1]] = cmd[2]
            elif head == "assert" and depth:
                local.append(cmd[1])
            elif head == "assert":
                if not self._definition(cmd[1]):
                    self.checked.append(cmd[1])
            elif head == "push":
                depth, name, local = depth + 1, None, []
            elif head == "echo" and cmd[1].startswith('"QUERY:'):
                name = cmd[1][len('"QUERY:'):-1]
            elif head == "check-sat" and depth and name:
                self.queries.append(
                    (name, local, set().union(*map(self.refs, local))))
            elif head == "pop":
                depth -= 1
            else:
                raise _Stuck(f"command {head}")
        self.checked_refs = set().union(*map(self.refs, self.checked))

    def _datatype(self, name, ctors):
        for ctor, *fields in ctors:
            self.ctors[ctor] = len(fields)
            for i, (sel, _) in enumerate(fields):
                self.selectors[sel] = (ctor, i)
        ctor, *fields = ctors[0]
        self.records[name] = (ctor, [sort for _, sort in fields])

    def _definition(self, term):
        """Record `term` as a definition when it is one; returns whether
        it was."""
        guard = None
        if isinstance(term, list) and term[0] == "=>" and len(term) == 3:
            guard, term = term[1], term[2]
        if not (isinstance(term, list) and term[0] == "=" and len(term) == 3
                and term[1] in self.sorts and term[1] not in self.defs):
            return False
        c = term[1]
        deps = self.refs(term[2]) | self.refs(guard)
        if any(self.order[d] >= self.order[c] for d in deps):
            return False
        self.defs[c] = (guard, term[2])
        self.deps[c] = deps
        return True

    def refs(self, term):
        """The constants `term` reads, also through defined functions."""
        out, todo = set(), [term]
        while todo:
            t = todo.pop()
            if isinstance(t, list):
                todo.extend(t)
            elif t in self.sorts:
                out.add(t)
            elif t in self.fun_refs:
                out |= self.fun_refs[t]
        return out

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


def _sub(*v):
    return -v[0] if len(v) == 1 else v[0] - sum(v[1:])


def _mul(*v):
    out = 1
    for x in v:
        out *= x
    return out


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
    "-": _sub,
    "*": _mul,
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
        if sort == "Int":
            return self._int()
        if sort == "Real":
            return Fraction(self._int(), self.rng.choice((1, 2)))
        if sort == "Bool":
            return self.rng.random() < 0.5
        if isinstance(sort, list) and sort[0] == "Array" \
                and self._infinite(sort[1]):
            return _Array(self.draw(sort[2]))
        if isinstance(sort, str) and sort in self.s.records:
            ctor, fields = self.s.records[sort]
            return (ctor, *(self.draw(f) for f in fields))
        raise _Stuck(f"sort {sort}")

    def _infinite(self, sort):
        if sort in ("Int", "Real"):
            return True
        fields = self.s.records.get(sort, (None, []))[1] \
            if isinstance(sort, str) else []
        return any(self._infinite(f) for f in fields)

    def _int(self):
        if self.rng.random() < self.p_small:
            return self.rng.choice(self.pool)
        return self.rng.randint(-10_000, 10_000)

    def holds(self, term):
        return self.eval(term) is True

    def eval(self, t, env=None):
        if isinstance(t, str):
            return self._atom(t, env)
        op, args = t[0], t[1:]
        if op == "ite":
            return self.eval(args[1] if self.eval(args[0], env) is True
                             else args[2], env)
        if op in ("and", "or", "=>"):
            return self._connective(op, args, env)
        if not isinstance(op, str):
            raise _Stuck("indexed operator")
        vals = [self.eval(a, env) for a in args]
        if op in _OPS:
            try:
                return _OPS[op](*vals)
            except (TypeError, AttributeError):
                raise _Stuck(f"ill-sorted {op}") from None
        if op in self.s.funs:
            params, body = self.s.funs[op]
            return self.eval(body, dict(zip(params, vals)))
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


def refute_queries(text):
    """{query name: model} for the queries of `text` that a checked
    assignment satisfies.  A model maps the constants the check read to
    their values; any value of the others extends it.  The other queries
    are left undecided."""
    try:
        script = _Script(_parse(text))
    except (_Stuck, IndexError, KeyError, TypeError, ValueError):
        return {}
    rng = random.Random(SEED)
    literals = {int(n) for n in _NUMERAL.findall(text)}
    pool = sorted(set(_SMALL) | literals | {-n for n in literals})
    open_queries = {name: (asserts, refs)
                    for name, asserts, refs in script.queries}
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
            if not all(model.holds(a) for a in script.checked):
                continue
        except (_Stuck, RecursionError):
            continue
        assignment = None
        for name, (asserts, _) in list(open_queries.items()):
            try:
                if all(model.holds(a) for a in asserts):
                    assignment = assignment or model.assignment()
                    models[name] = assignment
                    del open_queries[name]
                    idle = 0
            except (_Stuck, RecursionError):
                pass
    return models
