"""Inlining and lowering to simple-assignment form.

The normalized program keeps the control-flow skeleton (if/while trees) but
every assignment leaf is one of:

    x = op(y1, y2)     (single non-call operator, atoms only)
    x = op(y1)
    x = y1
    *x = y1            (store through a pointer-valued variable)

plus the bookkeeping kinds Havoc, UnmodelableCall and Nop.
A branch or loop condition is an `NCond`: a comparison of two atoms, or
the truth (`nonzero`) of one.  Any other operand is computed into a
temporary by statements before the `if` or the loop, which a loop runs
again after its body, in `NWhile.recheck`; like every assignment,
they add dependency edges.  A negated literal stays a literal, and `p->f`
is read through the member's address (`pmember_addr`, then `deref`).
Both operands of `&&` and `||` are evaluated, as a call in a condition
is: an operand that C's short circuit would skip (`a[i]` in
`i < n && a[i] > 0`) can trap in the normalized program.

Calls are inlined.  A call through a function pointer becomes a chain of
`if`s, one arm per possible target (`SubsetReport.fp_targets`), each
comparing the pointer with a `funcaddr` temporary and inlining its
target; the final `else` is an unmodelable call with no item, whose
result and memory are left unconstrained.  A call that inlining cannot
eliminate (a recursive or library callee, or the arm of a recursive
target) is an unmodelable call tagged with its item.

Address-of-member expressions are lowered the way the worked examples do:
the member value is materialized into a temporary and the address of that
temporary is taken, with the statement tagged as the unmodelable item and
annotated with the true base object so base-variable resolution stays
conservative.
"""

from __future__ import annotations

from ._records import field, record, replace
from .diagnostics import (
    InlineDepthExceeded, NormalizeError, Span, UnsupportedExpression,
)
from .frontend.ast import (
    AssignStmt, Binary, BOOL, Call, CompoundStmt, DeclStmt,
    ExprStmt, FloatLit, FunctionDef, IfStmt, Index, INT, IntLit, Member,
    Name, NullLit, PointerType, ReturnStmt, StructType, Unary, WhileStmt,
    VOID, child_fields, nested_stmts,
)

COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")
BINARY_OPS = {"+", "-", "*", "/", "%", *COMPARISONS, "&&", "||"}
ADDR_OPS = {"addr", "elem_addr", "member_addr", "pmember_addr", "funcaddr"}
MAX_INLINE_DEPTH = 32   # nested calls inlined into one another


# ---------------------------------------------------------------------------
# Atoms and simple statements


@record(frozen=True)
class VarRef:
    name: str

    def __str__(self):
        return self.name


@record(frozen=True)
class Lit:
    value: object  # int or Fraction; None for the null pointer
    kind: str      # 'int', 'real', 'null'

    def __str__(self):
        if self.kind == "null":
            return "NULL"
        return str(self.value)


def atom_vars(a):
    return [a.name] if isinstance(a, VarRef) else []


@record
class NAssign:
    lhs: str
    op: str            # 'copy', unary/binary op name, or an address op
    args: list         # atoms
    fld: str = None    # member name for member / *member_addr ops
    func: str = None   # for 'funcaddr'
    span: Span = None
    item: object = None       # SubsetItem when this stmt realizes one
    base_hint: tuple = None   # ('var', name) | ('ptr', name) for addr ops


@record
class NStore:
    ptr: object        # atom (VarRef)
    value: object      # atom
    span: Span = None


@record
class NHavoc:
    var: str
    span: Span = None


@record
class NUnmodelableCall:
    lhs: str           # '' when the callee result is unused
    func: str
    args: list
    span: Span = None
    item: object = None


@record
class NNop:
    span: Span = None


@record(frozen=True)
class NCond:
    """A branch or loop condition: `op`, one of COMPARISONS, of two
    atoms, or `nonzero`, the truth of one atom."""
    op: str
    args: tuple

    def __str__(self):
        if self.op == "nonzero":
            return str(self.args[0])
        return f"{self.args[0]} {self.op} {self.args[1]}"


def cond_vars(c):
    """The variables the condition `c` reads; a NondetCond reads none."""
    if isinstance(c, NondetCond):
        return []
    return [v for a in c.args for v in atom_vars(a)]


@record
class NIf:
    cond: object       # NCond, or NondetCond after abstraction
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)
    span: Span = None


@record
class NWhile:
    """A loop.  Each iteration runs `body`, then `recheck`: the statements
    that evaluate the calls hoisted out of the condition and the
    condition's operands again."""
    cond: object
    body: list = field(default_factory=list)
    recheck: list = field(default_factory=list)
    span: Span = None
    loop_id: int = 0


@record(frozen=True)
class NondetCond:
    """Placeholder for a branch condition replaced by an unknown boolean."""


@record
class NDecl:
    name: str
    ctype: object
    kind: str          # 'param', 'global', 'local', 'temp'


@record
class NormalizedProgram:
    entry: str
    decls: dict          # name -> NDecl, insertion-ordered
    body: list
    ret_var: str = None
    # the pointer temporary of each store into an array element ->
    # (array, index atom): the encoder updates an array with a symbol of
    # its own in place
    designators: dict = field(default_factory=dict)
    ast: object = None   # the inlined Ast (struct defs etc.)
    report: object = None   # the unit's SubsetReport

    def walk(self):
        yield from walk_stmts(self.body)


def walk_stmts(stmts):
    for s in stmts:
        yield s
        if isinstance(s, NIf):
            yield from walk_stmts(s.then)
            yield from walk_stmts(s.els)
        elif isinstance(s, NWhile):
            yield from walk_stmts(s.body)
            yield from walk_stmts(s.recheck)


# ---------------------------------------------------------------------------
# Inlining (AST level)


@record
class _InlinedWhile(WhileStmt):
    """AST-level loop after inlining: `recheck` evaluates the calls
    hoisted out of its condition again after each run of its body."""
    recheck: list = field(default_factory=list)
    children = ("cond", "body", "recheck")


@record
class _UCallStmt:
    """AST-level marker: call we refuse to inline (recursive or library,
    tagged with the item at `item_span`, or the untagged last arm of a
    function-pointer call)."""
    lhs: str
    func: str
    args: list        # Expr args, already hoisted to simple names
    span: Span = None
    item_span: Span = None
    children = ("args",)


class _ReturnCtx:
    def __init__(self, ret_var, done_flag):
        self.ret_var = ret_var
        self.done_flag = done_flag


def _may_return(s):
    return any(isinstance(x, ReturnStmt) for x in nested_stmts(s))


def _has_nontail_return(body):
    """True when a return can execute with statements still to run after it."""

    def scan(s, tail):
        if isinstance(s, ReturnStmt):
            return not tail
        if isinstance(s, CompoundStmt):
            n = len(s.stmts)
            return any(scan(x, tail and i == n - 1)
                       for i, x in enumerate(s.stmts))
        if isinstance(s, IfStmt):
            hit = scan(s.then, tail)
            if s.els is not None:
                hit = hit or scan(s.els, tail)
            return hit
        if isinstance(s, WhileStmt):
            return _may_return(s.body)  # a loop return always skips iterations
        return False

    return scan(body, True)


class Inliner:
    def __init__(self, ast, report):
        self.ast = ast
        self.report = report
        self.recursive = report.recursive
        self.counter = 0
        self.decls = {}      # name -> NDecl

    def fresh(self, base, ctype, kind="temp"):
        self.counter += 1
        name = f"${base}{self.counter}"
        self.decls[name] = NDecl(name, ctype, kind)
        return name

    def declare(self, name, ctype, kind, span):
        if name in self.decls:
            raise NormalizeError(f"duplicate declaration of {name!r}", span)
        self.decls[name] = NDecl(name, ctype, kind)

    def run(self, entry_name):
        fn = self.ast.function(entry_name)
        if fn is None:
            raise NormalizeError(f"no function named {entry_name!r}")
        for g in self.ast.globals:
            self.declare(g.name, g.ctype, "global", g.span)
        rename = {}
        for p in fn.params:
            if p.name in self.decls:
                new = self.fresh(p.name + "_", p.ctype, kind="param")
                rename[p.name] = new
            else:
                self.declare(p.name, p.ctype, "param", p.span)
        body = []
        # global initializers run before the entry body
        for g in self.ast.globals:
            body.extend(self.initialize(_name_of(g), g, {}, 0))
        ret_var = None
        if fn.ret != VOID:
            ret_var = "$result"
            self.decls[ret_var] = NDecl(ret_var, fn.ret, "temp")
        body.extend(self.function_body(fn, rename, 0, ret_var))
        return body, ret_var

    # -- statements ----------------------------------------------------------

    def function_body(self, fn, rename, depth, ret_var):
        """Lower one function instance, routing returns into ret_var.

        Early (non-tail) returns are realized with a done flag: every
        return sets it and everything after a possible return point is
        guarded by it; loops whose body may return also stop iterating.
        """
        ctx = _ReturnCtx(ret_var, None)
        if _has_nontail_return(fn.body):
            ctx.done_flag = self.fresh("done", INT)
        out = []
        if ctx.done_flag is not None:
            out.append(AssignStmt(target=_name(ctx.done_flag, INT),
                                  value=IntLit(value=0, span=fn.span),
                                  span=fn.span))
        out.extend(self.block(fn.body, dict(rename), depth, ctx))
        return out

    def block(self, stmt, rename, depth, ctx):
        stmts = stmt.stmts if isinstance(stmt, CompoundStmt) else [stmt]
        out = []
        for i, s in enumerate(stmts):
            lowered = self.stmt(s, rename, depth, ctx)
            out.extend(lowered)
            rest = stmts[i + 1:]
            if rest and ctx.done_flag is not None and _may_return(s):
                guard = Binary(op="==", lhs=_name(ctx.done_flag, INT),
                               rhs=IntLit(value=0, span=s.span), span=s.span)
                guard.ctype = BOOL
                inner = self.block(CompoundStmt(stmts=rest, span=s.span),
                                   rename, depth, ctx)
                out.append(IfStmt(cond=guard,
                                  then=CompoundStmt(stmts=inner, span=s.span),
                                  span=s.span))
                return out
        return out

    def stmt(self, s, rename, depth, ctx):
        if isinstance(s, CompoundStmt):
            return self.block(s, dict(rename), depth, ctx)
        if isinstance(s, DeclStmt):
            new = self.fresh_local(s, rename, depth)
            return self.initialize(_name(new, s.ctype), s, rename, depth)
        if isinstance(s, AssignStmt):
            return self.assign(s.target, s.value, rename, depth, s.span)
        if isinstance(s, IfStmt):
            pre, cond = self.expr_no_calls(s.cond, rename, depth)
            then = self.stmt(s.then, dict(rename), depth, ctx)
            els = self.stmt(s.els, dict(rename), depth, ctx) if s.els else []
            node = IfStmt(cond=cond, then=CompoundStmt(stmts=then, span=s.span),
                          els=CompoundStmt(stmts=els, span=s.span) if els else None,
                          span=s.span)
            return pre + [node]
        if isinstance(s, WhileStmt):
            pre, cond = self.expr_no_calls(s.cond, rename, depth)
            body = self.stmt(s.body, dict(rename), depth, ctx)
            # condition temporaries are re-evaluated at the loop bottom
            recheck = pre
            if ctx.done_flag is not None and _may_return(s.body):
                notdone = Binary(op="==", lhs=_name(ctx.done_flag, INT),
                                 rhs=IntLit(value=0, span=s.span), span=s.span)
                notdone.ctype = BOOL
                cond = Binary(op="&&", lhs=notdone, rhs=cond, span=s.span)
                cond.ctype = BOOL
                if recheck:     # after a return the condition is not run
                    recheck = [IfStmt(cond=notdone,
                                      then=CompoundStmt(stmts=recheck,
                                                        span=s.span),
                                      span=s.span)]
            node = _InlinedWhile(cond=cond,
                                 body=CompoundStmt(stmts=body, span=s.span),
                                 recheck=recheck, span=s.span)
            return pre + [node]
        if isinstance(s, ReturnStmt):
            out = []
            if s.value is not None and ctx.ret_var is not None:
                out.extend(self.assign(_name(ctx.ret_var, s.value.ctype), s.value,
                                       rename, depth, s.span))
            if ctx.done_flag is not None:
                out.append(AssignStmt(target=_name(ctx.done_flag, INT),
                                      value=IntLit(value=1, span=s.span),
                                      span=s.span))
            return out
        if isinstance(s, ExprStmt):
            pre, _ = self.expr_no_calls(s.expr, rename, depth, drop_value=True)
            return pre
        raise NormalizeError(f"cannot inline statement {type(s).__name__}", s.span)

    def fresh_local(self, s, rename, depth):
        if depth == 0 and s.name not in self.decls and not s.name.startswith("$"):
            self.declare(s.name, s.ctype, "local", s.span)
            rename[s.name] = s.name
            return s.name
        new = self.fresh(s.name + "_", s.ctype)
        rename[s.name] = new
        return new

    def initialize(self, target, decl, rename, depth):
        """The assignments of the scalar or brace initializer of the
        declaration `decl` to the variable `target` names."""
        out = []
        if decl.init is not None:
            out.extend(self.assign(target, decl.init, rename, depth,
                                   decl.span))
        if decl.init_list is not None:
            for i, e in enumerate(decl.init_list):
                tgt = Index(arr=target, index=IntLit(value=i, span=decl.span),
                            span=decl.span)
                tgt.ctype = decl.ctype.elem
                out.extend(self.assign(tgt, e, rename, depth, decl.span))
        return out

    def assign(self, target, value, rename, depth, span):
        pre_t, new_target = self.expr_no_calls(target, rename, depth)
        pre_v, new_value = self.expr_no_calls(value, rename, depth)
        return pre_t + pre_v + [AssignStmt(target=new_target, value=new_value,
                                           span=span)]

    # -- expressions: hoist calls, apply renaming ----------------------------

    def expr_no_calls(self, e, rename, depth, drop_value=False):
        pre = []
        new = self._rewrite(e, rename, depth, pre, drop_value)
        return pre, new

    def _rewrite(self, e, rename, depth, pre, drop_value=False):
        """`e` with its calls hoisted into `pre` and its names renamed;
        `e` itself when it holds no call and no renamed name."""
        if e is None:
            return None
        if isinstance(e, Call):
            return self.hoist_call(e, rename, depth, pre, drop_value)
        if isinstance(e, Name):
            ident = rename.get(e.ident, e.ident)
            if ident == e.ident:
                return e
            changed = {"ident": ident}
        else:
            changed = {}
            for attr in child_fields(e):    # no list: calls went above
                v = getattr(e, attr)
                new = self._rewrite(v, rename, depth, pre)
                if new is not v:
                    changed[attr] = new
            if not changed:
                return e
        # a shallow copy, as copy.copy makes it, without its dispatch
        new = object.__new__(type(e))
        new.__dict__.update(e.__dict__)
        new.__dict__.update(changed)
        return new

    def hoist_call(self, e, rename, depth, pre, drop_value=False):
        args = [self._rewrite(a, rename, depth, pre) for a in e.args]
        callee_decl = e.callee.decl if isinstance(e.callee, Name) else None
        if isinstance(callee_decl, FunctionDef):
            if callee_decl.name in self.recursive:
                return self._emit_ucall(e, callee_decl.name, args, pre, drop_value)
            return self._inline_body(e, callee_decl, args, depth, pre, drop_value)
        if callee_decl is None and isinstance(e.callee, Name):
            # library call: no definition in this translation unit
            return self._emit_ucall(e, e.callee.ident, args, pre, drop_value)
        # function-pointer call
        fp = self._rewrite(e.callee, rename, depth, pre)
        return self._emit_fp_call(e, fp, args, depth, pre, drop_value)

    def _hoist_args(self, args, pre, span):
        atoms = []
        for a in args:
            if isinstance(a, (Name, IntLit, FloatLit, NullLit)):
                atoms.append(a)
                continue
            t = self.fresh("arg", a.ctype)
            pre.append(AssignStmt(target=_name(t, a.ctype), value=a, span=span))
            atoms.append(_name(t, a.ctype))
        return atoms

    def _emit_ucall(self, e, fname, args, pre, drop_value):
        atoms = self._hoist_args(args, pre, e.span)
        lhs = ""
        ret_t = e.ctype if e.ctype is not None else INT
        if not drop_value and ret_t != VOID:
            lhs = self.fresh("call", ret_t)
        pre.append(_UCallStmt(lhs=lhs, func=fname, args=atoms, span=e.span,
                              item_span=e.span))
        if lhs:
            return _name(lhs, ret_t)
        return IntLit(value=0, span=e.span)

    def _emit_fp_call(self, e, fp, args, depth, pre, drop_value):
        """`if (fp == &t1) { t1 } else if ... else { unmodelable fp() }`,
        one arm per possible target; returns the result's name."""
        atoms = self._hoist_args(args, pre, e.span)
        sig = fp.ctype
        if not isinstance(fp, Name):
            t = self.fresh("fp", sig)
            pre.append(AssignStmt(target=_name(t, sig), value=fp, span=e.span))
            fp = _name(t, sig)
        ret_t = sig.ret
        lhs = ""
        if not drop_value and ret_t != VOID:
            lhs = self.fresh("call", ret_t)
        arms = []
        for fname in self.report.fp_targets(self.ast, sig):
            fdef = self.ast.function(fname)
            addr = self.fresh("f", sig)
            ref = Unary(op="&", operand=Name(ident=fname, span=e.span,
                                             decl=fdef), span=e.span)
            pre.append(AssignStmt(target=_name(addr, sig), value=ref,
                                  span=e.span))
            arms.append((fdef, addr))
        chain = [_UCallStmt(lhs=lhs, func=fp.ident, args=atoms, span=e.span)]
        for fdef, addr in reversed(arms):
            fname = fdef.name
            arm = []
            if fname in self.recursive:
                arm.append(_UCallStmt(lhs=lhs, func=fname, args=atoms,
                                      span=e.span, item_span=e.span))
            else:
                v = self._inline_body(e, fdef, atoms, depth, arm, not lhs)
                if lhs:
                    arm.append(AssignStmt(target=_name(lhs, ret_t), value=v,
                                          span=e.span))
            cond = Binary(op="==", lhs=fp, rhs=_name(addr, sig), span=e.span)
            cond.ctype = BOOL
            chain = [IfStmt(cond=cond,
                            then=CompoundStmt(stmts=arm, span=e.span),
                            els=CompoundStmt(stmts=chain, span=e.span),
                            span=e.span)]
        pre.extend(chain)
        if lhs:
            return _name(lhs, ret_t)
        return IntLit(value=0, span=e.span)

    def _inline_body(self, e, fdef, args, depth, pre, drop_value):
        if depth + 1 > MAX_INLINE_DEPTH:
            raise InlineDepthExceeded(
                f"call nesting exceeds depth limit while inlining {fdef.name!r}",
                e.span)
        inner_rename = {}
        for p, a in zip(fdef.params, args):
            t = self.fresh(f"{fdef.name}_{p.name}", p.ctype)
            pre.append(AssignStmt(target=_name(t, p.ctype), value=a, span=e.span))
            inner_rename[p.name] = t
        ret_var = None
        if fdef.ret != VOID:
            ret_var = self.fresh(f"{fdef.name}_ret", fdef.ret)
        pre.extend(self.function_body(fdef, inner_rename, depth + 1, ret_var))
        if ret_var is not None and not drop_value:
            return _name(ret_var, fdef.ret)
        return IntLit(value=0, span=e.span)


def _name(ident, ctype):
    n = Name(ident=ident, span=None)
    n.ctype = ctype
    return n


def _name_of(decl):
    n = Name(ident=decl.name, span=decl.span)
    n.ctype = decl.ctype
    n.decl = decl
    return n


def inline_functions(ast, report, entry):
    """Inline every inlinable call in the entry function; returns the
    Inliner (with the declaration table), the inlined statements and the
    result variable."""
    inl = Inliner(ast, report)
    body, ret_var = inl.run(entry)
    return inl, body, ret_var


# ---------------------------------------------------------------------------
# Lowering to simple assignments


class Lowerer:
    def __init__(self, inliner, report):
        self.inl = inliner
        self.report = report
        self.designators = {}
        self.loop_id = 0

    def fresh(self, base, ctype):
        return self.inl.fresh(base, ctype)

    def lower_block(self, stmts):
        out = []
        for s in stmts:
            out.extend(self.lower_stmt(s))
        return out

    def lower_stmt(self, s):
        if isinstance(s, AssignStmt):
            return self.lower_assign(s)
        if isinstance(s, IfStmt):
            out = []
            cond = self.cond(s.cond, out)
            then = self.lower_block(s.then.stmts if isinstance(s.then, CompoundStmt)
                                    else [s.then])
            els = []
            if s.els is not None:
                els = self.lower_block(s.els.stmts if isinstance(s.els, CompoundStmt)
                                       else [s.els])
            out.append(NIf(cond=cond, then=then, els=els, span=s.span))
            return out
        if isinstance(s, WhileStmt):
            self.loop_id += 1
            lid = self.loop_id
            body = self.lower_block(s.body.stmts)
            recheck = self.lower_block(s.recheck)
            out = []
            cond = self.cond(s.cond, out)
            recheck += [replace(x) for x in out]
            out.append(NWhile(cond=cond, body=body, recheck=recheck,
                              span=s.span, loop_id=lid))
            return out
        if isinstance(s, _UCallStmt):
            out = []
            atoms = [self.atom(a, out) for a in s.args]
            item = self._find_item(s.item_span)
            out.append(NUnmodelableCall(lhs=s.lhs, func=s.func, args=atoms,
                                        span=s.span, item=item))
            return out
        raise NormalizeError(f"unexpected statement {type(s).__name__}",
                             getattr(s, "span", None))

    # -- assignments ---------------------------------------------------------

    def lower_assign(self, s):
        out = []
        t = s.target
        if isinstance(t, Name):
            self.lower_into(t.ident, s.value, out, s.span)
            return out
        if isinstance(t, Unary) and t.op == "*":
            p = self.atom(t.operand, out)
            v = self.atom(s.value, out)
            out.append(NStore(ptr=p, value=v, span=s.span))
            return out
        if isinstance(t, Index):
            base = self.atom(t.arr, out)
            if not isinstance(base, VarRef):
                raise UnsupportedExpression("array store needs a named base",
                                            s.span)
            idx = self.atom(t.index, out)
            v = self.atom(s.value, out)
            pt = self.fresh("p", PointerType(t.ctype))
            st = NAssign(lhs=pt, op="elem_addr", args=[base, idx], span=s.span)
            self.designators[pt] = (base.name, idx)
            out.extend([st, NStore(ptr=VarRef(pt), value=v, span=s.span)])
            return out
        if isinstance(t, Member):
            v = self.atom(s.value, out)
            pt = self.fresh("p", PointerType(t.ctype))
            if t.arrow:
                p = self.atom(t.obj, out)
                if not isinstance(p, VarRef):
                    raise UnsupportedExpression("member store needs a named base",
                                                s.span)
                st = NAssign(lhs=pt, op="pmember_addr", args=[p], fld=t.name,
                             span=s.span)
            else:
                if not isinstance(t.obj, Name):
                    raise UnsupportedExpression(
                        "nested member store is unsupported", s.span)
                base = VarRef(t.obj.ident)
                st = NAssign(lhs=pt, op="member_addr", args=[base], fld=t.name,
                             span=s.span)
            out.extend([st, NStore(ptr=VarRef(pt), value=v, span=s.span)])
            return out
        raise UnsupportedExpression("unsupported assignment target", s.span)

    def lower_into(self, lhs, e, out, span):
        """Lower e so its final value lands directly in lhs."""
        stmt = self.top_level(lhs, e, out, span)
        out.append(stmt)

    def top_level(self, lhs, e, out, span):
        if isinstance(e, Binary):
            if e.op in BINARY_OPS:
                a = self.atom(e.lhs, out)
                b = self.atom(e.rhs, out)
                return NAssign(lhs=lhs, op=e.op, args=[a, b], span=span)
        if isinstance(e, Unary):
            if e.op == "-":
                return NAssign(lhs=lhs, op="neg", args=[self.atom(e.operand, out)],
                               span=span)
            if e.op == "!":
                return NAssign(lhs=lhs, op="not", args=[self.atom(e.operand, out)],
                               span=span)
            if e.op == "*":
                return NAssign(lhs=lhs, op="deref",
                               args=[self.atom(e.operand, out)], span=span)
            if e.op == "&":
                return self.lower_addr(lhs, e, out, span)
        if isinstance(e, Member):
            if e.arrow:
                p = self.atom(e.obj, out)
                t = self.fresh("v", StructType("?") if e.obj.ctype is None
                               else e.obj.ctype.target)
                out.append(NAssign(lhs=t, op="deref", args=[p], span=span))
                return NAssign(lhs=lhs, op="member", args=[VarRef(t)], fld=e.name,
                               span=span)
            v = self.atom(e.obj, out)
            return NAssign(lhs=lhs, op="member", args=[v], fld=e.name,
                           span=span)
        if isinstance(e, Index):
            a = self.atom(e.arr, out)
            i = self.atom(e.index, out)
            return NAssign(lhs=lhs, op="index", args=[a, i], span=span)
        atom = self.atom(e, out)
        return NAssign(lhs=lhs, op="copy", args=[atom], span=span)

    def lower_addr(self, lhs, e, out, span):
        inner = e.operand
        if isinstance(inner, Name):
            if isinstance(inner.decl, FunctionDef):
                return NAssign(lhs=lhs, op="funcaddr", args=[],
                               func=inner.decl.name, span=span)
            return NAssign(lhs=lhs, op="addr", args=[VarRef(inner.ident)],
                           span=span, item=self._find_item(e.span),
                           base_hint=("var", inner.ident))
        if isinstance(inner, (Member, Index)):
            # materialize the member value, then take the temporary's address;
            # the true base is kept for base-variable resolution
            val = self.atom(inner, out)
            if not isinstance(val, VarRef):
                raise UnsupportedExpression("cannot take this address", span)
            hint = self._true_base(inner)
            return NAssign(lhs=lhs, op="addr", args=[val], span=span,
                           item=self._find_item(e.span), base_hint=hint)
        raise UnsupportedExpression("cannot take this address", span)

    def _true_base(self, e):
        """Outermost object containing the addressed member."""
        while True:
            if isinstance(e, Name):
                return ("var", e.ident)
            if isinstance(e, Member):
                if e.arrow:
                    return self._ptr_base(e.obj)
                e = e.obj
            elif isinstance(e, Index):
                at = e.arr.ctype
                if isinstance(at, PointerType):
                    return self._ptr_base(e.arr)
                e = e.arr
            elif isinstance(e, Unary) and e.op == "*":
                return self._ptr_base(e.operand)
            else:
                return None

    def _ptr_base(self, e):
        if isinstance(e, Name):
            return ("ptr", e.ident)
        return None

    def _find_item(self, span):
        return None if span is None else self.report.item_at(span)

    # -- conditions ----------------------------------------------------------

    def cond(self, e, out):
        """The NCond of the condition `e`; the statements that compute its
        operands are appended to `out`."""
        if isinstance(e, Binary) and e.op in COMPARISONS:
            return NCond(e.op, (self.operand(e.lhs, out),
                                self.operand(e.rhs, out)))
        return NCond("nonzero", (self.operand(e, out),))

    def operand(self, e, out):
        """The atom of an operand of a condition.  A negated literal is a
        literal, and `p->f` is read through the address of the member."""
        if isinstance(e, Unary) and e.op == "-" \
                and isinstance(e.operand, (IntLit, FloatLit)):
            lit = self.atom(e.operand, out)
            return Lit(-lit.value, lit.kind)
        if isinstance(e, Member) and e.arrow:
            p = self.atom(e.obj, out)
            pt = self.fresh("p", PointerType(e.ctype))
            out.append(NAssign(lhs=pt, op="pmember_addr", args=[p], fld=e.name,
                               span=e.span))
            t = self.fresh("t", e.ctype)
            out.append(NAssign(lhs=t, op="deref", args=[VarRef(pt)],
                               span=e.span))
            return VarRef(t)
        return self.atom(e, out)

    # -- atoms ---------------------------------------------------------------

    def atom(self, e, out):
        if isinstance(e, IntLit):
            return Lit(e.value, "int")
        if isinstance(e, FloatLit):
            return Lit(e.value, "real")
        if isinstance(e, NullLit):
            return Lit(None, "null")
        if isinstance(e, Name):
            if isinstance(e.decl, FunctionDef):
                t = self.fresh("f", e.ctype)
                out.append(NAssign(lhs=t, op="funcaddr", args=[],
                                   func=e.decl.name, span=e.span))
                return VarRef(t)
            return VarRef(e.ident)
        t = self.fresh("t", e.ctype if e.ctype is not None else INT)
        self.lower_into(t, e, out, e.span)
        return VarRef(t)


def to_simple_assignments(ast, report, entry):
    """Full normalization: inline, then lower to simple-assignment form."""
    inl, body, ret_var = inline_functions(ast, report, entry)
    low = Lowerer(inl, report)
    return NormalizedProgram(
        entry=entry, decls=inl.decls, body=low.lower_block(body),
        ret_var=ret_var, designators=low.designators, ast=ast,
        report=report)


# ---------------------------------------------------------------------------
# Pretty printer (for --dump normalized and golden tests)


def stmt_text(s):
    if isinstance(s, NAssign):
        if s.op == "copy":
            rhs = str(s.args[0])
        elif s.op == "neg":
            rhs = f"-{s.args[0]}"
        elif s.op == "not":
            rhs = f"!{s.args[0]}"
        elif s.op == "deref":
            rhs = f"*{s.args[0]}"
        elif s.op == "member":
            rhs = f"{s.args[0]}.{s.fld}"
        elif s.op == "index":
            rhs = f"{s.args[0]}[{s.args[1]}]"
        elif s.op == "addr":
            rhs = f"&{s.args[0]}"
        elif s.op == "elem_addr":
            rhs = f"&{s.args[0]}[{s.args[1]}]"
        elif s.op == "member_addr":
            rhs = f"&{s.args[0]}.{s.fld}"
        elif s.op == "pmember_addr":
            rhs = f"&{s.args[0]}->{s.fld}"
        elif s.op == "funcaddr":
            rhs = f"&{s.func}"
        else:
            rhs = f"{s.args[0]} {s.op} {s.args[1]}"
        mark = "   # item" if s.item is not None else ""
        return f"{s.lhs} = {rhs};{mark}"
    if isinstance(s, NStore):
        return f"*{s.ptr} = {s.value};"
    if isinstance(s, NHavoc):
        return f"havoc {s.var};"
    if isinstance(s, NUnmodelableCall):
        args = ", ".join(str(a) for a in s.args)
        lhs = f"{s.lhs} = " if s.lhs else ""
        return f"{lhs}unmodelable {s.func}({args});"
    if isinstance(s, NNop):
        return "nop;"
    raise TypeError(f"unprintable {s!r}")


def program_text(prog_or_body, indent=0):
    body = prog_or_body.body if isinstance(prog_or_body, NormalizedProgram) \
        else prog_or_body
    lines = []
    pad = "  " * indent
    for s in body:
        if isinstance(s, NIf):
            lines.append(f"{pad}if ({cond_text(s.cond)}) {{")
            lines.extend(program_text(s.then, indent + 1).splitlines())
            if s.els:
                lines.append(f"{pad}}} else {{")
                lines.extend(program_text(s.els, indent + 1).splitlines())
            lines.append(f"{pad}}}")
        elif isinstance(s, NWhile):
            lines.append(f"{pad}while ({cond_text(s.cond)}) {{   # loop {s.loop_id}")
            lines.extend(program_text(s.body + s.recheck,
                                      indent + 1).splitlines())
            lines.append(f"{pad}}}")
        else:
            lines.append(pad + stmt_text(s))
    return "\n".join(lines) + ("\n" if indent == 0 else "")


def cond_text(c):
    if isinstance(c, NondetCond):
        return "nondet()"
    return str(c)
