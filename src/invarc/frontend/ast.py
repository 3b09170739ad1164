"""Typed AST for the supported C subset.

The parser produces these nodes with spans; the typechecker fills in the
``ctype`` slot on every expression and resolves every name to a single
declaration.  ``for`` never appears here (it is desugared to ``while`` at
parse time), and neither do any rejected constructs.
"""

from __future__ import annotations

from fractions import Fraction

from .._records import field, record
from ..diagnostics import Span


# ---------------------------------------------------------------------------
# Types


class CType:
    """Base class; concrete types below.  Instances are immutable."""

    def is_scalar(self):
        return isinstance(self, (IntType, LongType, DoubleType, BoolType))

    def is_integer(self):
        return isinstance(self, (IntType, LongType, BoolType))


@record(frozen=True)
class IntType(CType):
    def __str__(self):
        return "int"


@record(frozen=True)
class LongType(CType):
    def __str__(self):
        return "long"


@record(frozen=True)
class DoubleType(CType):
    def __str__(self):
        return "double"


@record(frozen=True)
class BoolType(CType):
    # internal only: comparison/logical results before use as int
    def __str__(self):
        return "int"


@record(frozen=True)
class VoidType(CType):
    def __str__(self):
        return "void"


@record(frozen=True)
class StructType(CType):
    name: str

    def __str__(self):
        return f"struct {self.name}"


@record(frozen=True)
class ArrayType(CType):
    elem: CType
    length: int

    def __str__(self):
        return f"{self.elem}[{self.length}]"


@record(frozen=True)
class PointerType(CType):
    target: CType

    def __str__(self):
        return f"{self.target}*"


@record(frozen=True)
class FuncPtrType(CType):
    params: tuple
    ret: CType

    def __str__(self):
        args = ", ".join(str(p) for p in self.params)
        return f"{self.ret} (*)({args})"


INT = IntType()
LONG = LongType()
DOUBLE = DoubleType()
BOOL = BoolType()
VOID = VoidType()


def same_type(a, b):
    """Type compatibility used for assignment / parameter passing."""
    if a == b:
        return True
    if a.is_integer() and b.is_integer():
        return True
    if isinstance(a, PointerType) and isinstance(b, ArrayType):
        return same_type(a.target, b.elem)  # array decay
    if isinstance(a, PointerType) and isinstance(b, PointerType):
        return same_type(a.target, b.target)
    if isinstance(a, FuncPtrType) and isinstance(b, FuncPtrType):
        return len(a.params) == len(b.params) and \
            same_type(a.ret, b.ret) and \
            all(same_type(x, y) for x, y in zip(a.params, b.params))
    return False


# ---------------------------------------------------------------------------
# Expressions
#
# Every node class names, in `children`, the fields that hold its
# sub-expressions and sub-statements, in field order; each such field
# holds a node, a list of nodes, or None.  A subclass inherits its
# parent's.  The walkers read this declaration through `child_fields`
# instead of inspecting every field of every node.


@record
class Expr:
    span: Span = field(default=None, repr=False, compare=False)
    ctype: CType = field(default=None, repr=False, compare=False)
    children = ()


@record
class IntLit(Expr):
    value: int = 0


@record
class FloatLit(Expr):
    value: Fraction = Fraction(0)
    text: str = "0.0"


@record
class NullLit(Expr):
    pass


@record
class Name(Expr):
    ident: str = ""
    # filled by typecheck: the VarDecl / Param / FunctionDef this resolves to
    decl: object = field(default=None, repr=False, compare=False)


@record
class Unary(Expr):
    op: str = ""  # -  !  &  *
    operand: Expr = None
    children = ("operand",)


@record
class Binary(Expr):
    op: str = ""  # + - * / % < <= > >= == != && ||
    lhs: Expr = None
    rhs: Expr = None
    children = ("lhs", "rhs")


@record
class Member(Expr):
    obj: Expr = None
    name: str = ""
    arrow: bool = False
    children = ("obj",)


@record
class Index(Expr):
    arr: Expr = None
    index: Expr = None
    children = ("arr", "index")


@record
class Call(Expr):
    callee: Expr = None
    args: list = field(default_factory=list)
    children = ("callee", "args")


# ---------------------------------------------------------------------------
# Statements


@record
class Stmt:
    span: Span = field(default=None, repr=False, compare=False)
    children = ()


@record
class DeclStmt(Stmt):
    name: str = ""
    ctype: CType = None
    init: Expr = None            # scalar initializer
    init_list: list = None       # array initializer {a, b, ...}
    children = ("init", "init_list")


@record
class AssignStmt(Stmt):
    target: Expr = None  # Name, Member, Index, or Unary('*', p)
    value: Expr = None
    children = ("target", "value")


@record
class CompoundStmt(Stmt):
    stmts: list = field(default_factory=list)
    children = ("stmts",)


@record
class IfStmt(Stmt):
    cond: Expr = None
    then: Stmt = None
    els: Stmt = None
    children = ("cond", "then", "els")


@record
class WhileStmt(Stmt):
    cond: Expr = None
    body: Stmt = None
    children = ("cond", "body")


@record
class ReturnStmt(Stmt):
    value: Expr = None
    children = ("value",)


@record
class ExprStmt(Stmt):
    expr: Expr = None
    children = ("expr",)


def child_fields(node):
    """The `children` of `node`'s class; raises TypeError for a value
    whose class declares none."""
    try:
        return type(node).children
    except AttributeError:
        raise TypeError(
            f"{type(node).__name__} declares no children") from None


def nested_stmts(s):
    """`s` and every statement nested in it, pre-order: the statements
    of a block and the arms of an `if` or a `while`."""
    todo = [s]
    while todo:
        s = todo.pop()
        if s is None:
            continue
        yield s
        if isinstance(s, CompoundStmt):
            todo += reversed(s.stmts)
        elif isinstance(s, IfStmt):
            todo += (s.els, s.then)
        elif isinstance(s, WhileStmt):
            todo.append(s.body)


# ---------------------------------------------------------------------------
# Top level


@record
class Param:
    name: str
    ctype: CType
    span: Span = field(default=None, repr=False, compare=False)


@record
class VarDecl:
    name: str
    ctype: CType
    init: Expr = None
    init_list: list = None
    span: Span = field(default=None, repr=False, compare=False)
    children = ("init", "init_list")


@record
class StructDef:
    name: str
    members: list  # list of (name, CType)
    span: Span = field(default=None, repr=False, compare=False)

    def member_type(self, name):
        for m, t in self.members:
            if m == name:
                return t
        return None

    def member_ordinal(self, name):
        for i, (m, _) in enumerate(self.members):
            if m == name:
                return i
        return None


@record
class FunctionDef:
    name: str
    ret: CType
    params: list  # list of Param
    body: CompoundStmt
    span: Span = field(default=None, repr=False, compare=False)


@record
class Ast:
    struct_defs: list = field(default_factory=list)
    globals: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    # (len(functions) when built, name -> first definition)
    _by_name: tuple = field(default=(-1, None), init=False, repr=False,
                            compare=False)

    def struct(self, name):
        for s in self.struct_defs:
            if s.name == name:
                return s
        return None

    def function(self, name):
        built, index = self._by_name
        if built != len(self.functions):
            index = {}
            for f in self.functions:
                index.setdefault(f.name, f)
            self._by_name = (len(self.functions), index)
        return index.get(name)


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through the parser)


def type_prefix_suffix(t):
    """Split a type into declaration prefix and suffix, C-style."""
    if isinstance(t, ArrayType):
        pre, suf = type_prefix_suffix(t.elem)
        return pre, f"[{t.length}]{suf}"
    if isinstance(t, PointerType):
        pre, suf = type_prefix_suffix(t.target)
        return pre + "*", suf
    return str(t) + " ", ""


def _decl_text(name, t):
    if isinstance(t, FuncPtrType):
        args = ", ".join(str(p) for p in t.params)
        return f"{t.ret} (*{name})({args})"
    pre, suf = type_prefix_suffix(t)
    return f"{pre}{name}{suf}"


# Binding strength of each binary operator; all associate to the left.
PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def expr_text(e, parent_prec=0):
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FloatLit):
        return e.text
    if isinstance(e, NullLit):
        return "NULL"
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Unary):
        inner = expr_text(e.operand, 10)
        s = f"{e.op}{inner}"
        # Prefix operators bind looser than postfix []/./->/(); a unary
        # operand of a postfix expression needs explicit parentheses.
        return f"({s})" if parent_prec > 7 else s
    if isinstance(e, Binary):
        p = PRECEDENCE[e.op]
        s = f"{expr_text(e.lhs, p)} {e.op} {expr_text(e.rhs, p + 1)}"
        return f"({s})" if p < parent_prec else s
    if isinstance(e, Member):
        op = "->" if e.arrow else "."
        return f"{expr_text(e.obj, 10)}{op}{e.name}"
    if isinstance(e, Index):
        return f"{expr_text(e.arr, 10)}[{expr_text(e.index)}]"
    if isinstance(e, Call):
        args = ", ".join(expr_text(a) for a in e.args)
        return f"{expr_text(e.callee, 10)}({args})"
    raise TypeError(f"unprintable expression {e!r}")


def _stmt_lines(s, indent):
    pad = "    " * indent
    if isinstance(s, DeclStmt):
        if s.init_list is not None:
            items = ", ".join(expr_text(x) for x in s.init_list)
            return [f"{pad}{_decl_text(s.name, s.ctype)} = {{{items}}};"]
        if s.init is not None:
            return [f"{pad}{_decl_text(s.name, s.ctype)} = {expr_text(s.init)};"]
        return [f"{pad}{_decl_text(s.name, s.ctype)};"]
    if isinstance(s, AssignStmt):
        return [f"{pad}{expr_text(s.target, 10)} = {expr_text(s.value)};"]
    if isinstance(s, CompoundStmt):
        lines = [f"{pad}{{"]
        for x in s.stmts:
            lines.extend(_stmt_lines(x, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(s, IfStmt):
        lines = [f"{pad}if ({expr_text(s.cond)})"]
        lines.extend(_stmt_lines(_as_block(s.then), indent))
        if s.els is not None:
            lines.append(f"{pad}else")
            lines.extend(_stmt_lines(_as_block(s.els), indent))
        return lines
    if isinstance(s, WhileStmt):
        lines = [f"{pad}while ({expr_text(s.cond)})"]
        lines.extend(_stmt_lines(_as_block(s.body), indent))
        return lines
    if isinstance(s, ReturnStmt):
        if s.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {expr_text(s.value)};"]
    if isinstance(s, ExprStmt):
        return [f"{pad}{expr_text(s.expr)};"]
    raise TypeError(f"unprintable statement {s!r}")


def _as_block(s):
    return s if isinstance(s, CompoundStmt) else CompoundStmt(stmts=[s])


def ast_text(ast):
    """Render a translation unit back to parseable source text."""
    lines = []
    for sd in ast.struct_defs:
        lines.append(f"struct {sd.name} {{")
        for name, t in sd.members:
            lines.append(f"    {_decl_text(name, t)};")
        lines.append("};")
    for g in ast.globals:
        if g.init_list is not None:
            items = ", ".join(expr_text(x) for x in g.init_list)
            lines.append(f"{_decl_text(g.name, g.ctype)} = {{{items}}};")
        elif g.init is not None:
            lines.append(f"{_decl_text(g.name, g.ctype)} = {expr_text(g.init)};")
        else:
            lines.append(f"{_decl_text(g.name, g.ctype)};")
    for fn in ast.functions:
        params = ", ".join(_decl_text(p.name, p.ctype) for p in fn.params) or "void"
        lines.append(f"{fn.ret} {fn.name}({params})")
        lines.extend(_stmt_lines(fn.body, 0))
    return "\n".join(lines) + "\n"

