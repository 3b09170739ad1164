"""Name resolution and type annotation.

Every identifier use is resolved to exactly one declaration (scoped symbol
table) and every expression node receives a resolved CType.  BoolType is an
internal result type for comparisons and logical operators; it converts to
int freely, matching C's 0/1 semantics.
"""

from __future__ import annotations

from ..diagnostics import FrontendTypeError
from .ast import (
    ArrayType, AssignStmt, Binary, BOOL, BoolType, Call, CompoundStmt,
    DeclStmt, DOUBLE, DoubleType, ExprStmt, FloatLit, FuncPtrType,
    FunctionDef, IfStmt, Index, INT, IntLit, LONG, LongType, Member,
    Name, NullLit, PointerType, ReturnStmt, StructType, Unary, VOID,
    WhileStmt, same_type,
)


class Scope:
    def __init__(self, parent=None):
        self.parent = parent
        self.names = {}

    def define(self, name, decl, span):
        if name in self.names:
            raise FrontendTypeError(f"redefinition of {name!r}", span)
        self.names[name] = decl

    def lookup(self, name):
        s = self
        while s is not None:
            if name in s.names:
                return s.names[name]
            s = s.parent
        return None


def decl_type(decl):
    if isinstance(decl, FunctionDef):
        return FuncPtrType(tuple(p.ctype for p in decl.params), decl.ret)
    return decl.ctype


class TypeChecker:
    def __init__(self, ast):
        self.ast = ast
        self.globals = Scope()

    def run(self):
        for sd in self.ast.struct_defs:
            if self.ast.struct(sd.name) is not sd:
                raise FrontendTypeError(f"duplicate struct {sd.name!r}", sd.span)
            for mname, mt in sd.members:
                self.check_type(mt, sd.span, member_of=sd.name)
        for g in self.ast.globals:
            self.check_type(g.ctype, g.span)
            self.globals.define(g.name, g, g.span)
        for fn in self.ast.functions:
            self.globals.define(fn.name, fn, fn.span)
        for g in self.ast.globals:
            if g.init is not None:
                self.check_init(g, self.globals)
            if g.init_list is not None:
                self.check_init_list(g, self.globals)
        for fn in self.ast.functions:
            self.check_function(fn)

    def check_type(self, t, span, member_of=None):
        if isinstance(t, StructType):
            if self.ast.struct(t.name) is None:
                raise FrontendTypeError(f"unknown struct {t.name!r}", span)
            if member_of == t.name:
                raise FrontendTypeError(f"struct {t.name!r} contains itself", span)
        elif isinstance(t, ArrayType):
            self.check_type(t.elem, span, member_of)
        elif isinstance(t, PointerType):
            self.check_type(t.target, span)

    def struct_def(self, t, span):
        sd = self.ast.struct(t.name)
        if sd is None:
            raise FrontendTypeError(f"unknown struct {t.name!r}", span)
        return sd

    def check_function(self, fn):
        scope = Scope(self.globals)
        for p in fn.params:
            self.check_type(p.ctype, p.span)
            scope.define(p.name, p, p.span)
        self.check_stmt(fn.body, scope, fn)

    def check_stmt(self, s, scope, fn):
        if isinstance(s, CompoundStmt):
            inner = Scope(scope)
            for x in s.stmts:
                self.check_stmt(x, inner, fn)
        elif isinstance(s, DeclStmt):
            self.check_type(s.ctype, s.span)
            scope.define(s.name, s, s.span)
            if s.init is not None:
                self.check_init(s, scope)
            if s.init_list is not None:
                self.check_init_list(s, scope)
        elif isinstance(s, AssignStmt):
            tt = self.check_expr(s.target, scope)
            self.require_lvalue(s.target)
            vt = self.check_expr(s.value, scope)
            self.require_assignable(tt, vt, s.span)
        elif isinstance(s, IfStmt):
            self.require_condition(self.check_expr(s.cond, scope), s.cond)
            self.check_stmt(s.then, scope, fn)
            if s.els is not None:
                self.check_stmt(s.els, scope, fn)
        elif isinstance(s, WhileStmt):
            self.require_condition(self.check_expr(s.cond, scope), s.cond)
            self.check_stmt(s.body, scope, fn)
        elif isinstance(s, ReturnStmt):
            if s.value is not None:
                vt = self.check_expr(s.value, scope)
                if fn.ret == VOID:
                    raise FrontendTypeError("void function returns a value", s.span)
                self.require_assignable(fn.ret, vt, s.span)
            elif fn.ret != VOID:
                raise FrontendTypeError("non-void function returns nothing", s.span)
        elif isinstance(s, ExprStmt):
            self.check_expr(s.expr, scope)
        else:
            raise FrontendTypeError(f"unknown statement {type(s).__name__}", s.span)

    def check_init(self, decl, scope):
        vt = self.check_expr(decl.init, scope)
        self.require_assignable(decl.ctype, vt, decl.span)

    def check_init_list(self, decl, scope):
        if not isinstance(decl.ctype, ArrayType):
            raise FrontendTypeError("brace initializer needs an array type", decl.span)
        if len(decl.init_list) > decl.ctype.length:
            raise FrontendTypeError("too many initializers", decl.span)
        for e in decl.init_list:
            vt = self.check_expr(e, scope)
            self.require_assignable(decl.ctype.elem, vt, decl.span)

    # -- expressions ---------------------------------------------------------

    def check_expr(self, e, scope):
        t = self._expr_type(e, scope)
        e.ctype = t
        return t

    def _expr_type(self, e, scope):
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, FloatLit):
            return DOUBLE
        if isinstance(e, NullLit):
            return PointerType(VOID)
        if isinstance(e, Name):
            decl = scope.lookup(e.ident)
            if decl is None:
                raise FrontendTypeError(f"use of undeclared identifier {e.ident!r}",
                                        e.span)
            e.decl = decl
            return decl_type(decl)
        if isinstance(e, Unary):
            return self._unary_type(e, scope)
        if isinstance(e, Binary):
            return self._binary_type(e, scope)
        if isinstance(e, Member):
            return self._member_type(e, scope)
        if isinstance(e, Index):
            at = self.check_expr(e.arr, scope)
            it = self.check_expr(e.index, scope)
            if not it.is_integer():
                raise FrontendTypeError("array index must be an integer", e.span)
            if isinstance(at, ArrayType):
                return at.elem
            if isinstance(at, PointerType):
                if at.target == VOID:
                    raise FrontendTypeError("cannot index void pointer", e.span)
                return at.target
            raise FrontendTypeError(f"cannot index value of type {at}", e.span)
        if isinstance(e, Call):
            return self._call_type(e, scope)
        raise FrontendTypeError(f"unknown expression {type(e).__name__}", e.span)

    def _unary_type(self, e, scope):
        t = self.check_expr(e.operand, scope)
        if e.op == "-":
            if not (t.is_integer() or isinstance(t, DoubleType)):
                raise FrontendTypeError("unary minus needs arithmetic operand", e.span)
            return INT if isinstance(t, BoolType) else t
        if e.op == "!":
            self.require_condition(t, e.operand)
            return BOOL
        if e.op == "&":
            if isinstance(e.operand, Name) and isinstance(e.operand.decl, FunctionDef):
                return decl_type(e.operand.decl)
            self.require_lvalue(e.operand)
            if isinstance(t, ArrayType):
                raise FrontendTypeError(
                    "address of whole array is unsupported", e.span)
            return PointerType(t)
        if e.op == "*":
            if isinstance(t, PointerType):
                if t.target == VOID:
                    raise FrontendTypeError("cannot dereference void pointer", e.span)
                return t.target
            if isinstance(t, ArrayType):
                return t.elem
            raise FrontendTypeError(f"cannot dereference value of type {t}", e.span)
        raise FrontendTypeError(f"unknown unary operator {e.op!r}", e.span)

    def _binary_type(self, e, scope):
        lt = self.check_expr(e.lhs, scope)
        rt = self.check_expr(e.rhs, scope)
        op = e.op
        if op in ("&&", "||"):
            self.require_condition(lt, e.lhs)
            self.require_condition(rt, e.rhs)
            return BOOL
        if op in ("==", "!=") and self._pointerish(lt) and _is_zero(e.rhs):
            e.rhs = _null_pointer(e.rhs)
            rt = e.rhs.ctype
        elif op in ("==", "!=") and self._pointerish(rt) and _is_zero(e.lhs):
            e.lhs = _null_pointer(e.lhs)
            lt = e.lhs.ctype
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if self._pointerish(lt) or self._pointerish(rt):
                if op in ("==", "!=") and self._ptr_comparable(lt, rt):
                    return BOOL
                raise FrontendTypeError("invalid pointer comparison", e.span)
            self.require_arith(lt, e.lhs)
            self.require_arith(rt, e.rhs)
            return BOOL
        if op in ("+", "-"):
            # pointer arithmetic: data pointer/array +- integer, never
            # a function pointer
            data = (PointerType, ArrayType)
            if isinstance(lt, data) and rt.is_integer():
                return lt if isinstance(lt, PointerType) else PointerType(lt.elem)
            if op == "+" and lt.is_integer() and isinstance(rt, data):
                return rt if isinstance(rt, PointerType) else PointerType(rt.elem)
        if op in ("+", "-", "*", "/"):
            self.require_arith(lt, e.lhs)
            self.require_arith(rt, e.rhs)
            if isinstance(lt, DoubleType) or isinstance(rt, DoubleType):
                return DOUBLE
            if isinstance(lt, LongType) or isinstance(rt, LongType):
                return LONG
            return INT
        if op == "%":
            if not (lt.is_integer() and rt.is_integer()):
                raise FrontendTypeError("% needs integer operands", e.span)
            return LONG if LongType() in (lt, rt) else INT
        raise FrontendTypeError(f"unknown operator {op!r}", e.span)

    def _member_type(self, e, scope):
        ot = self.check_expr(e.obj, scope)
        if e.arrow:
            if not isinstance(ot, PointerType) or not isinstance(ot.target, StructType):
                raise FrontendTypeError("-> needs a pointer to struct", e.span)
            st = ot.target
        else:
            if not isinstance(ot, StructType):
                raise FrontendTypeError(". needs a struct value", e.span)
            st = ot
        sd = self.struct_def(st, e.span)
        mt = sd.member_type(e.name)
        if mt is None:
            raise FrontendTypeError(
                f"struct {st.name!r} has no member {e.name!r}", e.span)
        return mt

    def _call_type(self, e, scope):
        if isinstance(e.callee, Name) and scope.lookup(e.callee.ident) is None:
            # implicit declaration: a library call; classified downstream
            arg_ts = tuple(self.check_expr(a, scope) for a in e.args)
            e.callee.decl = None
            e.callee.ctype = FuncPtrType(arg_ts, INT)
            return INT
        ct = self.check_expr(e.callee, scope)
        if not isinstance(ct, FuncPtrType):
            raise FrontendTypeError("called object is not a function", e.span)
        if len(e.args) != len(ct.params):
            raise FrontendTypeError(
                f"call expects {len(ct.params)} arguments, got {len(e.args)}", e.span)
        for a, pt in zip(e.args, ct.params):
            at = self.check_expr(a, scope)
            self.require_assignable(pt, at, a.span)
        return ct.ret

    # -- requirements --------------------------------------------------------

    @staticmethod
    def _pointerish(t):
        return isinstance(t, (PointerType, ArrayType, FuncPtrType))

    @staticmethod
    def _ptr_comparable(a, b):
        def norm(t):
            if isinstance(t, ArrayType):
                return PointerType(t.elem)
            return t
        a, b = norm(a), norm(b)
        return (isinstance(a, (PointerType, FuncPtrType))
                and isinstance(b, (PointerType, FuncPtrType)))

    def require_arith(self, t, e):
        if not (t.is_integer() or isinstance(t, DoubleType)):
            raise FrontendTypeError(f"arithmetic operand has type {t}", e.span)

    def require_condition(self, t, e):
        if not (t.is_scalar() or self._pointerish(t)):
            raise FrontendTypeError(f"condition has non-scalar type {t}", e.span)

    def require_lvalue(self, e):
        ok = isinstance(e, (Name, Member, Index)) or (
            isinstance(e, Unary) and e.op == "*")
        if isinstance(e, Name) and isinstance(e.decl, FunctionDef):
            ok = False
        if not ok:
            raise FrontendTypeError("expression is not an lvalue", e.span)

    def require_assignable(self, dst, src, span):
        if same_type(dst, src):
            return
        if isinstance(dst, DoubleType) and src.is_integer():
            return
        if isinstance(dst, (PointerType, FuncPtrType)) and isinstance(src, PointerType) \
                and src.target == VOID:
            return  # NULL
        raise FrontendTypeError(f"cannot assign {src} to {dst}", span)


def _is_zero(e):
    return isinstance(e, IntLit) and e.value == 0


def _null_pointer(zero):
    """The null pointer constant written as the literal `zero`, as NULL,
    so that every later stage sees one form."""
    null = NullLit(span=zero.span)
    null.ctype = PointerType(VOID)
    return null


def typecheck(ast):
    TypeChecker(ast).run()
    return ast
