"""Concrete interpreters used as independent oracles in the test suite.

Two execution engines share one value model:

  * SourceInterp runs a typechecked Ast (real calls, real aliasing).
  * NormInterp runs a NormalizedProgram (simple statements and atom
    conditions; a havoc resolver supplies the values of Havoc statements,
    and a nondeterministic condition is false).

Value model: mathematical integers for int/long, exact rationals for
double (matching the real-arithmetic encoding), structs as dicts of cells,
arrays as lists of cells, pointers as (cell-list, index) pairs so pointer
arithmetic and aliasing behave like C.
"""

from __future__ import annotations

from fractions import Fraction

from ._records import field, record
from .diagnostics import StepBudgetExceeded
from .frontend.ast import (
    ArrayType, AssignStmt, Binary, Call, CompoundStmt, DeclStmt,
    DoubleType, ExprStmt, FloatLit, FuncPtrType, FunctionDef, IfStmt, Index,
    IntLit, Member, Name, NullLit, PointerType, ReturnStmt, StructType,
    Unary, VOID, WhileStmt, nested_stmts,
)
from . import normalize as N


class InterpError(Exception):
    """Runtime trap: null/dangling deref, out-of-bounds, division by zero,
    or a construct the interpreter cannot execute (library call)."""


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


@record(frozen=True)
class PtrVal:
    cells: tuple  # target cell block (length 1 for scalars)
    idx: int

    def deref(self):
        if not (0 <= self.idx < len(self.cells)):
            raise InterpError("pointer dereference out of bounds")
        return self.cells[self.idx]


@record(frozen=True)
class FuncAddr:
    name: str


NULL = None


def default_value(ctype, structs):
    if isinstance(ctype, DoubleType):
        return Fraction(0)
    if isinstance(ctype, StructType):
        sd = structs[ctype.name]
        return {m: Cell(default_value(t, structs)) for m, t in sd.members}
    if isinstance(ctype, ArrayType):
        return [Cell(default_value(ctype.elem, structs))
                for _ in range(ctype.length)]
    if isinstance(ctype, (PointerType, FuncPtrType)):
        return NULL
    return 0


def copy_value(v):
    if isinstance(v, dict):
        return {k: Cell(copy_value(c.value)) for k, c in v.items()}
    if isinstance(v, list):
        return [Cell(copy_value(c.value)) for c in v]
    return v


SCALAR_TYPES = frozenset((int, Fraction))


def is_scalar_value(v):
    # exact types, which leave out bool: isinstance on Fraction goes
    # through its ABC's __instancecheck__, slow in every snapshot
    return type(v) in SCALAR_TYPES


def truthy(v):
    if v is NULL:
        return False
    if isinstance(v, (PtrVal, FuncAddr)):
        return True
    return v != 0


def c_div(a, b):
    if b == 0:
        raise InterpError("division by zero")
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return Fraction(a) / Fraction(b)
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def c_mod(a, b):
    if b == 0:
        raise InterpError("modulo by zero")
    return a - b * c_div(a, b)


def apply_binop(op, a, b):
    if op == "+":
        if isinstance(a, PtrVal):
            return PtrVal(a.cells, a.idx + b)
        if isinstance(b, PtrVal):
            return PtrVal(b.cells, b.idx + a)
        if a is NULL or b is NULL:
            raise InterpError("arithmetic on a null pointer")
        return a + b
    if op == "-":
        if isinstance(a, PtrVal):
            return PtrVal(a.cells, a.idx - b)
        if a is NULL:
            raise InterpError("arithmetic on a null pointer")
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return c_div(a, b)
    if op == "%":
        return c_mod(a, b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "&&":
        return int(truthy(a) and truthy(b))
    if op == "||":
        return int(truthy(a) or truthy(b))
    raise InterpError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Expression evaluation


class _ExprMixin:
    """Evaluation of AST expressions, for SourceInterp; NormInterp, whose
    statements and conditions hold only atoms, uses only `tick` and
    `store`.  Requires self.lookup(name) -> Cell, self.structs, self.steps
    and self.budget."""

    def tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise StepBudgetExceeded("interpreter step budget exhausted")

    def eval(self, e):
        self.steps += 1     # self.tick(), inlined: eval is the hot path
        if self.steps > self.budget:
            raise StepBudgetExceeded("interpreter step budget exhausted")
        t = type(e)     # the most frequent node types first
        if t is Name:
            if type(e.decl) is FunctionDef:
                return FuncAddr(e.decl.name)
            v = self.lookup(e.ident).value
            if isinstance(v, list):  # array decays to pointer
                return PtrVal(tuple(v), 0)
            return v
        if t is Binary:
            if e.op == "&&":
                return int(truthy(self.eval(e.lhs)) and truthy(self.eval(e.rhs)))
            if e.op == "||":
                return int(truthy(self.eval(e.lhs)) or truthy(self.eval(e.rhs)))
            a = self.eval(e.lhs)
            b = self.eval(e.rhs)
            return self._promote(apply_binop(e.op, a, b), e)
        if t is IntLit or t is FloatLit:
            return e.value
        if t is NullLit:
            return NULL
        if isinstance(e, Unary):
            if e.op == "&":
                if isinstance(e.operand, Name) and \
                        isinstance(e.operand.decl, FunctionDef):
                    return FuncAddr(e.operand.decl.name)
                cell, block, idx = self.lvalue(e.operand)
                return PtrVal(block, idx)
            if e.op == "*":
                return self.read_ptr(self.eval(e.operand))
            v = self.eval(e.operand)
            if e.op == "-":
                return -v
            if e.op == "!":
                return int(not truthy(v))
        if isinstance(e, Member):
            if e.arrow:
                obj = self.read_ptr(self.eval(e.obj))
            else:
                obj = self.eval(e.obj)
            if not isinstance(obj, dict):
                raise InterpError("member access on non-struct")
            v = obj[e.name].value
            if isinstance(v, list):
                return PtrVal(tuple(v), 0)
            return v
        if isinstance(e, Index):
            base = self.eval(e.arr)
            i = self.eval(e.index)
            if not isinstance(base, PtrVal):
                raise InterpError("indexing a non-pointer")
            return PtrVal(base.cells, base.idx + i).deref().value
        if isinstance(e, Call):
            return self.call(e)
        raise InterpError(f"cannot evaluate {type(e).__name__}")

    def _promote(self, v, e):
        if isinstance(e.ctype, DoubleType) and isinstance(v, int):
            return Fraction(v)
        return v

    def read_ptr(self, p):
        if p is NULL:
            raise InterpError("null dereference")
        if not isinstance(p, PtrVal):
            raise InterpError("dereferencing a non-pointer")
        v = p.deref().value
        if isinstance(v, list):
            return PtrVal(tuple(v), 0)
        return v

    def lvalue(self, e):
        """Returns (cell, containing-block, index-in-block)."""
        if isinstance(e, Name):
            cell = self.lookup(e.ident)
            return cell, (cell,), 0
        if isinstance(e, Unary) and e.op == "*":
            p = self.eval(e.operand)
            if p is NULL:
                raise InterpError("null dereference")
            if not isinstance(p, PtrVal):
                raise InterpError("dereferencing a non-pointer")
            return p.deref(), p.cells, p.idx
        if isinstance(e, Member):
            if e.arrow:
                p = self.eval(e.obj)
                if p is NULL:
                    raise InterpError("null dereference")
                obj = p.deref().value
            else:
                obj = self.lvalue(e.obj)[0].value
            if not isinstance(obj, dict):
                raise InterpError("member access on non-struct")
            cell = obj[e.name]
            return cell, (cell,), 0
        if isinstance(e, Index):
            base = self.eval(e.arr)
            i = self.eval(e.index)
            if not isinstance(base, PtrVal):
                raise InterpError("indexing a non-pointer")
            j = base.idx + i
            if not (0 <= j < len(base.cells)):
                raise InterpError("index out of bounds")
            return base.cells[j], base.cells, j
        raise InterpError("not an lvalue")

    def store(self, cell, v, ctype=None):
        if isinstance(ctype, DoubleType) and isinstance(v, int):
            v = Fraction(v)
        if isinstance(v, dict):
            v = copy_value(v)
        cell.value = v


# ---------------------------------------------------------------------------
# Source-level interpreter


@record
class RunResult:
    ret: object
    finals: dict                  # scalar variable -> value (entry scope)
    entry_values: dict            # params/globals at entry
    loop_events: list             # (loop_span, phase, {var: value})
    point_values: list = field(default_factory=list)  # (stmt_span, {var: value})

    def loop_changes(self, first="head", second="bend"):
        """The loop-change index, built in one pass over the loop events:
        per loop span, `(compared, changed)` over each `first` snapshot
        and the `second` snapshot of the same span that follows it, the
        variables that both snapshots hold and those whose value differs
        between them in some such pair."""
        pending, out = {}, {}
        for span, phase, snap in self.loop_events:
            if phase == first:
                pending[span] = snap
            elif phase == second and span in pending:
                a = pending.pop(span)
                keys = a.keys() & snap.keys()
                compared, changed = out.setdefault(span, (set(), set()))
                compared |= keys
                changed.update(v for v in keys if a[v] != snap[v])
        return out


def _renamed_locals(ast, fn):
    """The names of the entry function `fn`'s parameters and locals that
    may not be the variable the normalizer gives that name: a global's
    name, which the normalizer gives the global, and a name declared more
    than once in `fn`, of which it gives the name to the first."""
    seen, twice = set(), set()
    names = [p.name for p in fn.params]
    names += [s.name for s in nested_stmts(fn.body) if type(s) is DeclStmt]
    for name in names:
        (twice if name in seen else seen).add(name)
    return twice | {g.name for g in ast.globals}


class SourceInterp(_ExprMixin):
    def __init__(self, ast, budget=200_000, record_points=False):
        self.ast = ast
        self.structs = {sd.name: sd for sd in ast.struct_defs}
        self.budget = budget
        self.steps = 0
        self.record_points = record_points
        self.globals = {}
        self.frames = []
        self.active = []         # the functions running, outermost first
        self.renamed = set()     # entry-frame names a snapshot leaves out
        self.loop_events = []
        self.point_values = []

    def lookup(self, name):
        for scope in reversed(self.frames[-1]):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        raise InterpError(f"unbound variable {name!r}")

    def run(self, entry, args):
        for g in self.ast.globals:
            self.globals[g.name] = Cell(default_value(g.ctype, self.structs))
        fn = self.ast.function(entry)
        self.renamed = _renamed_locals(self.ast, fn)
        # global initializers
        self.frames.append([{}])
        for g in self.ast.globals:
            self.initialize(self.globals[g.name], g)
        self.frames.pop()
        self.frames.append([{p.name: Cell(copy_value(a))
                             for p, a in zip(fn.params, args)}])
        self.active.append(entry)
        entry_values = self.scalar_snapshot()
        ret = None
        self._top_finals = None
        try:
            self.exec_block(fn.body, top=True)
        except _ReturnSignal as r:
            ret = r.value
        finals = self._top_finals or self.scalar_snapshot()
        self.frames.pop()
        return RunResult(ret=ret, finals=finals, entry_values=entry_values,
                         loop_events=self.loop_events,
                         point_values=self.point_values)

    def initialize(self, cell, decl):
        """Store the scalar or brace initializer of the declaration `decl`
        in its variable's `cell`."""
        if decl.init is not None:
            self.store(cell, self.eval(decl.init), decl.ctype)
        if decl.init_list is not None:
            for i, e in enumerate(decl.init_list):
                self.store(cell.value[i], self.eval(e), decl.ctype.elem)

    def scalar_snapshot(self):
        """The scalars of the entry function's frame and the globals, also
        while a callee runs, under the names the normalizer gives them:
        the frame's variables that it renames are left out."""
        renamed = self.renamed
        out = {}
        for scope in self.frames[0]:
            for name, cell in scope.items():
                v = cell.value
                if type(v) in SCALAR_TYPES and name not in renamed:
                    out[name] = v
        for name, cell in self.globals.items():
            v = cell.value
            if type(v) in SCALAR_TYPES:
                out[name] = v
        return out

    def call(self, e):
        callee = e.callee
        fdef = None
        if isinstance(callee, Name) and isinstance(callee.decl, FunctionDef):
            fdef = callee.decl
        else:
            v = self.eval(callee)
            if isinstance(v, FuncAddr):
                fdef = self.ast.function(v.name)
            if fdef is None:
                raise InterpError("call through unknown function value")
        if isinstance(callee, Name) and callee.decl is None:
            raise InterpError(f"library call {callee.ident!r} not executable")
        args = [self.eval(a) for a in e.args]
        self.frames.append([{p.name: Cell(copy_value(a))
                             for p, a in zip(fdef.params, args)}])
        self.active.append(fdef.name)
        try:
            self.exec_block(fdef.body)
            ret = None
        except _ReturnSignal as r:
            ret = r.value
        self.frames.pop()
        self.active.pop()
        if fdef.ret == VOID:
            return 0
        if ret is None:
            raise InterpError("non-void function fell off the end")
        return ret

    def exec_block(self, block, top=False):
        self.frames[-1].append({})
        try:
            for s in block.stmts:
                self.exec_stmt(s)
                if top and self.record_points:
                    self.point_values.append((s.span, self.scalar_snapshot()))
        finally:
            if top:
                self._top_finals = self.scalar_snapshot()
            self.frames[-1].pop()

    def exec_stmt(self, s):
        self.tick()
        t = type(s)     # the most frequent statement types first
        if t is AssignStmt:
            v = self.eval(s.value)
            cell, _, _ = self.lvalue(s.target)
            self.store(cell, v, s.target.ctype)
        elif t is IfStmt:
            if truthy(self.eval(s.cond)):
                self.exec_stmt(s.then)
            elif s.els is not None:
                self.exec_stmt(s.els)
        elif t is CompoundStmt:
            self.exec_block(s)
        elif t is DeclStmt:
            cell = Cell(default_value(s.ctype, self.structs))
            self.frames[-1][-1][s.name] = cell
            self.initialize(cell, s)
        elif t is WhileStmt:
            self.exec_loop(s)
        elif t is ReturnStmt:
            v = self.eval(s.value) if s.value is not None else None
            raise _ReturnSignal(v)
        elif t is ExprStmt:
            self.eval(s.expr)
        else:
            raise InterpError(f"cannot execute {type(s).__name__}")

    def exec_loop(self, s):
        # a recursive activation is not inlined: its loops record nothing
        events = self.loop_events \
            if len(set(self.active)) == len(self.active) else []
        events.append((s.span, "pre", self.scalar_snapshot()))
        while truthy(self.eval(s.cond)):
            events.append((s.span, "head", self.scalar_snapshot()))
            self.exec_stmt(s.body)
            events.append((s.span, "bend", self.scalar_snapshot()))
        events.append((s.span, "post", self.scalar_snapshot()))


def run_source(ast, entry, args, budget=200_000, record_points=False):
    return SourceInterp(ast, budget, record_points).run(entry, args)


# ---------------------------------------------------------------------------
# Normalized-program interpreter


class NormInterp(_ExprMixin):
    """Executes a NormalizedProgram (or AbstractProgram body).

    ``havoc_value`` supplies values for Havoc statements; it defaults to a
    deterministic stand-in so plain normalized programs run without it.
    A NondetCond is false.
    """

    def __init__(self, prog, budget=200_000, havoc_value=None):
        self.prog = prog
        self.structs = {sd.name: sd for sd in prog.ast.struct_defs} \
            if prog.ast is not None else {}
        self.budget = budget
        self.steps = 0
        self.env = {}
        self.loop_events = []
        self.havoc_value = havoc_value or (lambda var, ctype: 7777)

    def run(self, args=None):
        args = args or {}
        for name, decl in self.prog.decls.items():
            self.env[name] = Cell(default_value(decl.ctype, self.structs))
        for name, v in args.items():
            self.store(self.env[name], copy_value(v),
                       self.prog.decls[name].ctype)
        entry_values = self.scalar_snapshot()
        self.exec_list(self.prog.body)
        finals = self.scalar_snapshot()
        ret = self.env[self.prog.ret_var].value if self.prog.ret_var else None
        return RunResult(ret=ret, finals=finals, entry_values=entry_values,
                         loop_events=self.loop_events)

    def scalar_snapshot(self):
        return {name: cell.value for name, cell in self.env.items()
                if is_scalar_value(cell.value)}

    def atom_value(self, a):
        if isinstance(a, N.Lit):
            if a.kind == "null":
                return NULL
            return a.value
        v = self.env[a.name].value
        if isinstance(v, list):
            return PtrVal(tuple(v), 0)
        return v

    def exec_list(self, stmts):
        for s in stmts:
            self.exec_n(s)

    def exec_n(self, s):
        self.tick()
        if isinstance(s, N.NAssign):
            v = self.eval_simple(s)
            decl = self.prog.decls.get(s.lhs)
            if decl is not None and isinstance(decl.ctype, DoubleType) \
                    and isinstance(v, int):
                v = Fraction(v)
            self.env[s.lhs].value = v
        elif isinstance(s, N.NStore):
            p = self.atom_value(s.ptr)
            if p is NULL:
                raise InterpError("null store")
            if not isinstance(p, PtrVal):
                raise InterpError("store through non-pointer")
            cell = p.deref()
            v = self.atom_value(s.value)
            if isinstance(cell.value, Fraction) and isinstance(v, int):
                v = Fraction(v)
            self.store(cell, v)
        elif isinstance(s, N.NHavoc):
            decl = self.prog.decls.get(s.var)
            self.env[s.var].value = self.havoc_value(
                s.var, decl.ctype if decl else None)
        elif isinstance(s, N.NUnmodelableCall):
            raise InterpError(f"unmodelable call {s.func!r} not executable")
        elif isinstance(s, N.NNop):
            pass
        elif isinstance(s, N.NIf):
            if self.cond_value(s.cond):
                self.exec_list(s.then)
            else:
                self.exec_list(s.els)
        elif isinstance(s, N.NWhile):
            self.exec_loop(s)
        else:
            raise InterpError(f"cannot execute {type(s).__name__}")

    def cond_value(self, c):
        self.tick()
        if isinstance(c, N.NondetCond):
            return False
        args = [self.atom_value(a) for a in c.args]
        if c.op == "nonzero":
            return truthy(args[0])
        return bool(apply_binop(c.op, *args))

    def exec_loop(self, s):
        key = s.span
        self.loop_events.append((key, "pre", self.scalar_snapshot()))
        while self.cond_value(s.cond):
            self.loop_events.append((key, "head", self.scalar_snapshot()))
            self.exec_list(s.body)
            self.loop_events.append((key, "bend", self.scalar_snapshot()))
            self.exec_list(s.recheck)
        self.loop_events.append((key, "post", self.scalar_snapshot()))

    def eval_simple(self, s):
        op = s.op
        if op == "copy":
            v = self.atom_value(s.args[0])
            return copy_value(v) if isinstance(v, dict) else v
        if op == "neg":
            return -self.atom_value(s.args[0])
        if op == "not":
            return int(not truthy(self.atom_value(s.args[0])))
        if op == "deref":
            p = self.atom_value(s.args[0])
            if p is NULL:
                raise InterpError("null dereference")
            v = p.deref().value
            if isinstance(v, dict):
                return copy_value(v)
            if isinstance(v, list):
                return PtrVal(tuple(v), 0)
            return v
        if op == "member":
            obj = self.env[s.args[0].name].value
            if not isinstance(obj, dict):
                raise InterpError("member of non-struct")
            v = obj[s.fld].value
            if isinstance(v, list):
                return PtrVal(tuple(v), 0)
            return copy_value(v) if isinstance(v, dict) else v
        if op == "index":
            base = self.atom_value(s.args[0])
            i = self.atom_value(s.args[1])
            if not isinstance(base, PtrVal):
                raise InterpError("indexing non-pointer")
            v = PtrVal(base.cells, base.idx + i).deref().value
            return copy_value(v) if isinstance(v, dict) else v
        if op == "addr":
            cell = self.env[s.args[0].name]
            v = cell.value
            if isinstance(v, list):
                return PtrVal(tuple(v), 0)
            return PtrVal((cell,), 0)
        if op == "elem_addr":
            base = self.atom_value(s.args[0])
            i = self.atom_value(s.args[1])
            if not isinstance(base, PtrVal):
                raise InterpError("element address of non-pointer")
            return PtrVal(base.cells, base.idx + i)
        if op == "member_addr":
            obj = self.env[s.args[0].name].value
            return PtrVal((obj[s.fld],), 0)
        if op == "pmember_addr":
            p = self.atom_value(s.args[0])
            if p is NULL:
                raise InterpError("null dereference")
            obj = p.deref().value
            return PtrVal((obj[s.fld],), 0)
        if op == "funcaddr":
            return FuncAddr(s.func)
        if op in N.BINARY_OPS:
            a = self.atom_value(s.args[0])
            b = self.atom_value(s.args[1])
            v = apply_binop(op, a, b)
            decl = self.prog.decls.get(s.lhs)
            if decl is not None and isinstance(decl.ctype, DoubleType) \
                    and isinstance(v, int):
                v = Fraction(v)
            return v
        raise InterpError(f"unknown op {op!r}")


def run_normalized(prog, args=None, budget=200_000, havoc_value=None):
    return NormInterp(prog, budget, havoc_value).run(args)
