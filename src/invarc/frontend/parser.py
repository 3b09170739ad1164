"""Recursive-descent parser for the C subset.

Binary expressions are parsed by precedence climbing over one table of
operator levels (Pratt, "Top down operator precedence", POPL 1973).

Grammar highlights:
  * ``for`` is desugared to ``while`` here, so the AST never contains it.
  * ``x++``, ``x--`` and compound assignments are sugar for plain
    assignment statements; their target may not hold a call, which the
    sugar would run twice.
  * Assignment is a statement, not an expression.
  * Function-pointer declarators are limited to ``RET (*name)(T1, ...)``.
  * Statements, expressions and unary operators nest at most
    ``MAX_NESTING`` deep together, and one statement or top-level
    declaration holds at most ``MAX_OPERATORS`` binary and postfix
    operators (each of which deepens the tree by one, as in
    ``a+a+...+a`` or ``p->next->...->next``), so that no later stage
    runs out of stack on a deep input.
"""

from __future__ import annotations

from fractions import Fraction

from ..diagnostics import ParseFailure, RejectedConstruct
from .ast import (
    Ast, AssignStmt, ArrayType, Binary, Call, CompoundStmt, DeclStmt,
    DOUBLE, ExprStmt, FloatLit, FuncPtrType, FunctionDef, IfStmt, INT,
    IntLit, LONG, Member, Name, NullLit, Param, PointerType, PRECEDENCE,
    ReturnStmt, StructDef, StructType, Unary, VarDecl, VOID, WhileStmt,
    Index, child_fields,
)
from .lexer import lex

MAX_NESTING = 64
MAX_OPERATORS = 128

# The parser looks tokens up in `PRECEDENCE` and `_POSTFIX` by text
# alone, since no identifier or number is spelled like a punctuator.
_POSTFIX = (".", "->", "[", "(")


class Parser:
    def __init__(self, tokens):
        # The parser looks at most two tokens past the current one, and
        # never consumes `eof`: two more copies of it make every lookahead
        # a plain index.
        self.toks = tokens + tokens[-1:] * 2
        self.pos = 0
        self.depth = 0
        self.operators = 0       # in the current statement or declaration

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead=0):
        return self.toks[self.pos + ahead]

    def at(self, text, ahead=0):
        """Whether the token `ahead` is the punctuator or keyword `text`
        (no identifier or number is spelled like one)."""
        return self.toks[self.pos + ahead].text == text

    def accept(self, text):
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text):
        if not self.accept(text):
            t = self.peek()
            raise ParseFailure(
                f"unexpected {t.text!r}" if t.kind != "eof" else "unexpected end of input",
                t.span, expected=(text,))
        return self.toks[self.pos - 1]

    def enter(self):
        """Go one nesting level deeper, failing past MAX_NESTING; the
        caller comes back with `self.depth -= 1`.  A parse failure ends
        the parse, so the levels it leaves open do not matter."""
        if self.depth >= MAX_NESTING:
            raise ParseFailure(f"nesting deeper than {MAX_NESTING} levels",
                               self.peek().span)
        self.depth += 1

    def operator(self, tok):
        """Count one binary or postfix operator, failing past
        MAX_OPERATORS in one statement or top-level declaration."""
        self.operators += 1
        if self.operators > MAX_OPERATORS:
            raise ParseFailure(f"more than {MAX_OPERATORS} operators in one "
                               "statement", tok.span)

    def expect_ident(self):
        t = self.peek()
        if t.kind != "ident":
            raise ParseFailure(f"expected identifier, found {t.text!r}",
                               t.span, expected=("identifier",))
        self.pos += 1
        return t

    # -- types --------------------------------------------------------------

    def at_type(self):
        """Whether a declaration starts here; consumes nothing."""
        return self.at("const") or \
            self.peek().text in ("int", "long", "double", "void", "struct")

    def parse_base_type(self):
        self.accept("const")
        t = self.peek()
        if t.text == "int":
            self.pos += 1
            return INT
        if t.text == "long":
            self.pos += 1
            return LONG
        if t.text == "double":
            self.pos += 1
            return DOUBLE
        if t.text == "void":
            self.pos += 1
            return VOID
        if t.text == "struct":
            self.pos += 1
            name = self.expect_ident()
            return StructType(name.text)
        raise ParseFailure(f"expected type, found {t.text!r}", t.span,
                           expected=("int", "long", "double", "struct"))

    def parse_pointers(self, base):
        while True:
            self.accept("const")
            if self.accept("*"):
                base = PointerType(base)
            else:
                return base

    # -- translation unit ---------------------------------------------------

    def parse_unit(self):
        ast = Ast()
        while self.peek().kind != "eof":
            if self.at("struct") and self.peek(2).text == "{":
                ast.struct_defs.append(self.parse_struct_def())
                continue
            self.parse_toplevel_decl(ast)
        return ast

    def parse_struct_def(self):
        start = self.expect("struct")
        name = self.expect_ident()
        self.expect("{")
        members = []
        while not self.accept("}"):
            t = self.parse_pointers(self.parse_base_type())
            m = self.expect_ident()
            if self.accept("["):
                ln = self.parse_array_len()
                t = ArrayType(t, ln)
            self.expect(";")
            members.append((m.text, t))
        self.expect(";")
        return StructDef(name.text, members, span=start.span)

    def parse_array_len(self):
        t = self.peek()
        if t.kind != "int":
            raise ParseFailure("array length must be an integer literal", t.span)
        self.pos += 1
        self.expect("]")
        n = _int_value(t)
        if n <= 0:
            raise ParseFailure("array length must be positive", t.span)
        return n

    def parse_toplevel_decl(self, ast):
        self.operators = 0
        base = self.parse_base_type()
        if self.at("(") and self.at("*", 1):
            name, t = self.parse_funcptr_declarator(base)
            ast.globals.append(self.finish_var_decl(name, t))
            return
        t = self.parse_pointers(base)
        name = self.expect_ident()
        if self.at("("):
            ast.functions.append(self.parse_function(t, name))
            return
        if self.accept("["):
            t = ArrayType(t, self.parse_array_len())
        ast.globals.append(self.finish_var_decl(name, t))

    def parse_funcptr_declarator(self, ret):
        self.expect("(")
        self.expect("*")
        name = self.expect_ident()
        self.expect(")")
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                params.append(self.parse_pointers(self.parse_base_type()))
                if not self.accept(","):
                    break
        self.expect(")")
        return name, FuncPtrType(tuple(params), ret)

    def finish_var_decl(self, name, t):
        init = None
        init_list = None
        if self.accept("="):
            if self.accept("{"):
                init_list = []
                while not self.accept("}"):
                    init_list.append(self.parse_expr())
                    if not self.at("}"):
                        self.expect(",")
            else:
                init = self.parse_expr()
        self.expect(";")
        return VarDecl(name.text, t, init=init, init_list=init_list, span=name.span)

    def parse_function(self, ret, name):
        self.expect("(")
        params = []
        if not self.at(")"):
            if self.at("void") and self.at(")", 1):
                self.pos += 1
            else:
                while True:
                    base = self.parse_base_type()
                    if self.at("(") and self.at("*", 1):
                        pname, pt = self.parse_funcptr_declarator(base)
                        params.append(Param(pname.text, pt, span=pname.span))
                    else:
                        pt = self.parse_pointers(base)
                        pname = self.expect_ident()
                        if self.accept("["):
                            pt = PointerType(pt)  # array parameter decays
                            self.parse_array_len_or_empty()
                        params.append(Param(pname.text, pt, span=pname.span))
                    if not self.accept(","):
                        break
        self.expect(")")
        body = self.parse_compound()
        return FunctionDef(name.text, ret, params, body, span=name.span)

    def parse_array_len_or_empty(self):
        if self.accept("]"):
            return
        t = self.peek()
        if t.kind == "int":
            self.pos += 1
        self.expect("]")

    # -- statements ---------------------------------------------------------

    def parse_compound(self):
        start = self.expect("{")
        stmts = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        return CompoundStmt(stmts=stmts, span=start.span)

    def parse_stmt(self):
        self.operators = 0
        self.enter()
        s = self._parse_stmt()
        self.depth -= 1
        return s

    def _parse_stmt(self):
        t = self.peek()
        if self.at("{"):
            return self.parse_compound()
        if self.at("if"):
            return self.parse_if()
        if self.at("while"):
            return self.parse_while()
        if self.at("for"):
            return self.parse_for()
        if self.at("return"):
            self.pos += 1
            if self.accept(";"):
                return ReturnStmt(span=t.span)
            e = self.parse_expr()
            self.expect(";")
            return ReturnStmt(value=e, span=t.span)
        if self.at_type():
            return self.parse_local_decl()
        return self.parse_expr_or_assign()

    def parse_local_decl(self):
        base = self.parse_base_type()
        if self.at("(") and self.at("*", 1):
            name, t = self.parse_funcptr_declarator(base)
            vd = self.finish_var_decl(name, t)
        else:
            t = self.parse_pointers(base)
            name = self.expect_ident()
            if self.accept("["):
                t = ArrayType(t, self.parse_array_len())
            vd = self.finish_var_decl(name, t)
        return DeclStmt(name=vd.name, ctype=vd.ctype, init=vd.init,
                        init_list=vd.init_list, span=vd.span)

    def parse_if(self):
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_stmt()
        els = None
        if self.accept("else"):
            els = self.parse_stmt()
        return IfStmt(cond=cond, then=then, els=els, span=start.span)

    def parse_while(self):
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return WhileStmt(cond=cond, body=body, span=start.span)

    def parse_for(self):
        # for (init; cond; step) body  =>  { init; while (cond) { body; step; } }
        start = self.expect("for")
        self.expect("(")
        init = None
        if not self.at(";"):
            if self.at_type():
                init = self.parse_local_decl()
            else:
                init = self.parse_simple_assign()
                self.expect(";")
        else:
            self.expect(";")
        cond = IntLit(value=1, span=start.span)
        if not self.at(";"):
            cond = self.parse_expr()
        self.expect(";")
        step = None
        if not self.at(")"):
            step = self.parse_simple_assign()
        self.expect(")")
        body = self.parse_stmt()
        if not isinstance(body, CompoundStmt):
            body = CompoundStmt(stmts=[body], span=body.span)
        if step is not None:
            body.stmts.append(step)
        loop = WhileStmt(cond=cond, body=body, span=start.span)
        stmts = [loop] if init is None else [init, loop]
        return CompoundStmt(stmts=stmts, span=start.span)

    def parse_expr_or_assign(self):
        s = self.parse_simple_assign()
        self.expect(";")
        return s

    def parse_simple_assign(self):
        """An assignment (possibly compound / ++ / --) or a bare expression."""
        start = self.peek()
        if start.kind == "punct" and start.text in ("++", "--"):
            self.pos += 1
            target = self.parse_unary()
            return self._incdec(target, start)
        target = self.parse_binary()
        t = self.peek()
        if t.kind == "punct" and t.text in ("++", "--"):
            self.pos += 1
            return self._incdec(target, t)
        if t.kind == "punct" and t.text in ("=", "+=", "-=", "*=", "/=", "%="):
            self.pos += 1
            value = self.parse_expr()
            self._check_lvalue(target)
            if t.text != "=":
                _check_read_back(target, t)
                value = Binary(op=t.text[0], lhs=target, rhs=value, span=t.span)
            return AssignStmt(target=target, value=value, span=start.span)
        return ExprStmt(expr=target, span=start.span)

    def _incdec(self, target, tok):
        self._check_lvalue(target)
        _check_read_back(target, tok)
        op = "+" if tok.text == "++" else "-"
        one = IntLit(value=1, span=tok.span)
        return AssignStmt(target=target,
                          value=Binary(op=op, lhs=target, rhs=one, span=tok.span),
                          span=tok.span)

    def _check_lvalue(self, e):
        if not isinstance(e, (Name, Member, Index)) and not (
                isinstance(e, Unary) and e.op == "*"):
            raise ParseFailure("assignment target is not an lvalue", e.span)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        self.enter()
        e = self.parse_binary()
        self.depth -= 1
        return e

    def parse_binary(self, min_level=1):
        """Operands joined by binary operators that bind at least as
        tightly as `min_level` (precedence climbing over `PRECEDENCE`)."""
        lhs = self.parse_unary()
        while True:
            t = self.toks[self.pos]
            level = PRECEDENCE.get(t.text, 0)
            if level < min_level:
                return lhs
            self.pos += 1
            self.operator(t)
            rhs = self.parse_binary(level + 1)
            lhs = Binary(op=t.text, lhs=lhs, rhs=rhs, span=t.span)

    def parse_unary(self):
        t = self.peek()
        if t.kind == "punct" and t.text in ("-", "!", "&", "*", "+"):
            self.pos += 1
            self.enter()
            inner = self.parse_unary()
            self.depth -= 1
            if t.text == "+":
                return inner
            return Unary(op=t.text, operand=inner, span=t.span)
        return self.parse_postfix()

    def parse_postfix(self):
        e = self.parse_primary()
        while True:
            t = self.toks[self.pos]
            if t.text not in _POSTFIX:
                return e
            self.operator(t)
            self.pos += 1
            if t.text in (".", "->"):
                m = self.expect_ident()
                e = Member(obj=e, name=m.text, arrow=t.text == "->",
                           span=t.span)
            elif t.text == "[":
                idx = self.parse_expr()
                self.expect("]")
                e = Index(arr=e, index=idx, span=t.span)
            else:
                args = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                e = Call(callee=e, args=args, span=t.span)

    def parse_primary(self):
        t = self.peek()
        if t.kind == "int":
            self.pos += 1
            return IntLit(value=_int_value(t), span=t.span)
        if t.kind == "float":
            self.pos += 1
            return FloatLit(value=Fraction(t.text), text=t.text, span=t.span)
        if t.kind == "kw" and t.text == "NULL":
            self.pos += 1
            return NullLit(span=t.span)
        if t.kind == "ident":
            self.pos += 1
            return Name(ident=t.text, span=t.span)
        if self.accept("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ParseFailure(
            f"unexpected {t.text!r}" if t.kind != "eof" else "unexpected end of input",
            t.span, expected=("expression",))


def _check_read_back(target, tok):
    """Reject `op=`, `++` or `--` (`tok`) on a target that holds a call:
    the statement is sugar for `target = target op v`, which would run
    the call twice where C runs it once."""
    def holds_call(e):
        return isinstance(e, Call) or any(
            holds_call(getattr(e, f)) for f in child_fields(e))

    if holds_call(target):
        raise RejectedConstruct(f"{tok.text} on a target that holds a call",
                                tok.span)


def _int_value(tok):
    """The value of an integer literal: octal after a leading zero, as
    in C, else decimal."""
    if tok.text[0] != "0":
        return int(tok.text)
    try:
        return int(tok.text, 8)
    except ValueError:
        raise ParseFailure(f"invalid digit in octal literal {tok.text!r}",
                           tok.span) from None


def parse_translation_unit(source_text):
    """Parse a translation unit; raises ParseFailure / FrontendTypeError."""
    from .typecheck import typecheck
    ast = Parser(lex(source_text)).parse_unit()
    typecheck(ast)
    return ast
