"""The AST walkers that read each node class's `children` against the
reflective walkers they replaced, which find a node's children by
inspecting every field of every node.

Each typed walker must visit, or rebuild, exactly what its reference
does on the corpus, the digest programs, the first 10 seed-1 programs of
each benchmark workload, and the output of `inline_functions` (which
holds the normalizer's own `_InlinedWhile` and `_UCallStmt` nodes), and
must raise at a value whose class declares no children instead of
skipping it."""

import typing

import pytest

from invarc._records import fields
from invarc.frontend import parse_translation_unit
from invarc.frontend import ast as A
from invarc.frontend.classify import classify_constructs, walk_exprs
from invarc.frontend.parser import _check_read_back
from invarc.frontend.lexer import Token
from invarc.normalize import (
    Inliner, _InlinedWhile, _UCallStmt, inline_functions, program_text,
    to_simple_assignments,
)

from test_pollution import differential_programs


def reference_walk_exprs(node, visit):
    """`walk_exprs` as it was before the `children` declaration: every
    field of every node is inspected.  One case is added: it skipped a
    `_UCallStmt` in a block, as not a `Stmt`, where the typed walker
    visits the call's arguments (names and literals), as it always did
    for a `_UCallStmt` it was given directly."""
    from invarc.frontend.ast import Expr, Stmt

    def expr(e):
        if e is None:
            return
        visit(e)
        for v in vars(e).values():
            if isinstance(v, Expr):
                expr(v)
            elif isinstance(v, list):
                for x in v:
                    if isinstance(x, Expr):
                        expr(x)

    def stmt(s):
        if s is None:
            return
        for v in vars(s).values():
            if isinstance(v, Expr):
                expr(v)
            elif isinstance(v, Stmt):
                stmt(v)
            elif isinstance(v, list):
                for x in v:
                    if isinstance(x, (Stmt, _UCallStmt)):
                        stmt(x)
                    elif isinstance(x, Expr):
                        expr(x)

    stmt(node)


def reference_rewrite(self, e, rename, depth, pre, drop_value=False):
    """`Inliner._rewrite` as it was before the `children` declaration."""
    from invarc.frontend.ast import Call, Expr, Name
    if e is None:
        return None
    if isinstance(e, Call):
        return self.hoist_call(e, rename, depth, pre, drop_value)
    changed = {}
    if isinstance(e, Name):
        ident = rename.get(e.ident, e.ident)
        if ident != e.ident:
            changed["ident"] = ident
    else:
        for attr, v in vars(e).items():
            if isinstance(v, Expr):
                new = self._rewrite(v, rename, depth, pre)
                if new is not v:
                    changed[attr] = new
            elif isinstance(v, list):
                new = [self._rewrite(x, rename, depth, pre)
                       if isinstance(x, Expr) else x for x in v]
                if any(a is not b for a, b in zip(new, v)):
                    changed[attr] = new
    if not changed:
        return e
    new = object.__new__(type(e))
    new.__dict__.update(e.__dict__)
    new.__dict__.update(changed)
    return new


def visits(walk, node):
    out = []
    walk(node, out.append)
    return [id(e) for e in out]


def test_walk_exprs_matches_the_reference():
    inlined = set()
    for label, src, entry in differential_programs():
        ast = parse_translation_unit(src)
        _, body, _ = inline_functions(ast, classify_constructs(ast), entry)
        nodes = [fn.body for fn in ast.functions] + ast.globals + body
        for node in nodes:
            assert visits(walk_exprs, node) == \
                visits(reference_walk_exprs, node), label
        inlined.update(type(s) for top in body for s in A.nested_stmts(top))
    assert {_InlinedWhile, _UCallStmt} <= inlined


def test_rewrite_matches_the_reference(monkeypatch):
    programs = list(differential_programs())
    typed = []
    for label, src, entry in programs:
        ast = parse_translation_unit(src)
        prog = to_simple_assignments(ast, classify_constructs(ast), entry)
        typed.append(program_text(prog))
    monkeypatch.setattr(Inliner, "_rewrite", reference_rewrite)
    for (label, src, entry), text in zip(programs, typed):
        ast = parse_translation_unit(src)
        prog = to_simple_assignments(ast, classify_constructs(ast), entry)
        assert program_text(prog) == text, label


def test_walkers_raise_at_a_value_that_declares_no_children():
    stray = Token("ident", "x", 1, 1)
    with pytest.raises(TypeError, match="Token declares no children"):
        walk_exprs(A.CompoundStmt(stmts=[A.ExprStmt(expr=stray)]),
                   lambda e: None)
    ast = parse_translation_unit("int f(int a) { return a; }")
    inl = Inliner(ast, classify_constructs(ast))
    with pytest.raises(TypeError, match="Token declares no children"):
        inl._rewrite(A.Unary(op="-", operand=stray), {}, 0, [])
    with pytest.raises(TypeError, match="Token declares no children"):
        _check_read_back(A.Index(arr=A.Name(ident="a"), index=stray), stray)


def node_classes():
    """Every class whose instances the walkers meet: the expression and
    statement classes, a global's declaration and the normalizer's own
    statements."""
    out, todo = [A.VarDecl, _UCallStmt], [A.Expr, A.Stmt]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo += cls.__subclasses__()
    return out


def test_children_are_the_fields_that_hold_nodes():
    """The declared children of each class are exactly its fields whose
    type is an expression, a statement or a list, in field order, so a
    new field that holds a node cannot be missed."""
    classes = node_classes()
    assert _InlinedWhile in classes and A.WhileStmt in classes
    for cls in classes:
        hints = typing.get_type_hints(cls)
        holding = tuple(
            f.name for f in fields(cls)
            if hints[f.name] is list or (isinstance(hints[f.name], type)
                                         and issubclass(hints[f.name],
                                                        (A.Expr, A.Stmt))))
        assert cls.children == holding, cls.__name__
