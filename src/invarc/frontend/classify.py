"""Construct classification: which AST nodes the encoder cannot model.

Each flagged occurrence carries its span; the pollution analysis labels
the variables each item reaches directly and closes the union of those
labels once.  Flagged kinds:

  * ``address-of-member``: &x.m, &x->m, &a[i] in the source.  Members live
    inside a host object, so their addresses do not fit the per-variable
    base-address memory scheme; they are conservatively treated as opaque.
  * ``address-of-aggregate-with-nested-members``: &v where v is a struct
    containing struct or array members (the flat base+offset layout only
    covers scalar members).
  * ``recursive-call``: call to a function on a call-graph cycle, which
    inlining cannot eliminate, or a call through a function pointer that
    may reach such a function.
  * ``library-call``: call to a function with no definition in this
    translation unit.
"""

from __future__ import annotations

from .._records import field, record
from .ast import (
    ArrayType, AssignStmt, Call, Expr, FuncPtrType, FunctionDef, Index,
    Member, Name, StructType, Unary, VarDecl, child_fields, nested_stmts,
    same_type,
)

@record(frozen=True)
class SubsetItem:
    kind: str
    span: object


@record
class SubsetReport:
    """The flagged constructs of a unit, and the unit facts the later
    stages read instead of walking the unit again: the functions on a
    call-graph cycle, the functions whose address the unit takes, by
    `&f` or by naming `f` other than as the callee of a call, in order
    of first use, and the call graph `calls`, each defined function
    mapped to the defined functions it may call, by name or through a
    pointer.  `fp_targets` holds the one rule for the functions a call
    through a pointer may reach."""
    unmodelable_items: list = field(default_factory=list)
    recursive: frozenset = frozenset()
    address_taken: tuple = ()
    calls: dict = field(default_factory=dict)
    # function -> (globals its own body may write, whether it stores
    # through a pointer), built on first ask
    _writes: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def item_at(self, span):
        for it in self.unmodelable_items:
            if it.span == span:
                return it
        return None

    def fp_targets(self, ast, sig):
        """The address-taken functions of `ast` whose type matches the
        function-pointer type `sig`: the possible targets of a call
        through a pointer of that type."""
        out = []
        for fname in self.address_taken:
            fdef = ast.function(fname)
            ftype = FuncPtrType(tuple(p.ctype for p in fdef.params), fdef.ret)
            if same_type(ftype, sig):
                out.append(fname)
        return out

    def written_globals(self, ast, fname):
        """Globals that the function `fname`, or a function it may call,
        may write: assigned by name (whole, or one element or member), or
        reachable through a pointer they make, by `&` or by using an
        array as a value."""
        return set().union(*(w for w, _ in self._summaries(ast, fname)))

    def stores_through_pointer(self, ast, fname):
        """Whether `fname`, or a function it may call, assigns a target
        not rooted at a named variable (`*p`, `p[i]`, `p->m`)."""
        return any(p for _, p in self._summaries(ast, fname))

    def _summaries(self, ast, fname):
        """The `_own_writes` of `fname` and of every function it may
        call, each body walked the first time it is asked about."""
        if fname not in self.calls:
            return []       # a library function
        out = []
        for f in _reachable(self.calls, (fname,)):
            if f not in self._writes:
                self._writes[f] = _own_writes(ast.function(f))
            out.append(self._writes[f])
        return out


def _reachable(graph, roots):
    """The functions reachable from `roots` in the call graph `graph`,
    `roots` included."""
    seen, todo = set(), list(roots)
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            todo.extend(graph.get(f, ()))
    return seen


def _own_writes(fn):
    """The globals the body of `fn` may write by name or through a
    pointer it makes (see `SubsetReport.written_globals`), and whether
    it stores through a pointer."""
    out = set()

    def add_root(e):
        """Add the global that `e` is rooted at; return whether `e` is
        rooted at a named variable."""
        while (isinstance(e, Index) and isinstance(e.arr.ctype, ArrayType)) \
                or (isinstance(e, Member) and not e.arrow):
            e = e.arr if isinstance(e, Index) else e.obj
        if isinstance(e, Name) and isinstance(e.decl, VarDecl):
            out.add(e.ident)
        return isinstance(e, Name)

    def visit(e):
        if isinstance(e, Unary) and e.op == "&":
            add_root(e.operand)
        elif isinstance(e, Name) and isinstance(e.ctype, ArrayType):
            add_root(e)     # an array used anywhere may decay to a pointer

    walk_exprs(fn.body, visit)
    through_pointer = False
    for s in nested_stmts(fn.body):
        if isinstance(s, AssignStmt) and not add_root(s.target):
            through_pointer = True
    return out, through_pointer


def walk_exprs(node, visit):
    """Call visit on every expression node under a statement or a
    global's declaration, pre-order; raises TypeError at a value whose
    class declares no `children`."""
    todo = [node]
    pop, push = todo.pop, todo.append
    while todo:
        n = pop()
        if isinstance(n, Expr):
            visit(n)
        for f in reversed(child_fields(n)):
            v = getattr(n, f)
            if type(v) is list:
                todo += reversed(v)
            elif v is not None:
                push(v)


def has_nested_members(ast, struct_type):
    sd = ast.struct(struct_type.name)
    if sd is None:
        return True
    return any(isinstance(t, (StructType, ArrayType)) for _, t in sd.members)


def classify_constructs(ast):
    """Deterministic SubsetReport over a well-formed, typechecked Ast, from
    one walk over the unit."""
    items = []
    graph = {}          # function -> defined functions it may call
    direct = []         # (span, callee) of each call to a defined function
    indirect = []       # (span, caller, type) of each call through a pointer
    taken = {}          # address-taken functions, in order
    callee_names = set()   # ids of the callee Names of direct calls
    caller = None

    def visit(e):
        if isinstance(e, Unary) and e.op == "&":
            inner = e.operand
            if isinstance(inner, (Member, Index)):
                items.append(SubsetItem("address-of-member", e.span))
            elif isinstance(inner, Name) and isinstance(inner.ctype, StructType) \
                    and has_nested_members(ast, inner.ctype):
                items.append(SubsetItem(
                    "address-of-aggregate-with-nested-members", e.span))
        elif isinstance(e, Name) and isinstance(e.decl, FunctionDef):
            # in `&f` or as a value; the walk is pre-order, so the callee
            # of a direct call is already known here
            if id(e) not in callee_names:
                taken.setdefault(e.decl.name)
        elif isinstance(e, Call):
            decl = e.callee.decl if isinstance(e.callee, Name) else None
            if isinstance(decl, FunctionDef):
                callee_names.add(id(e.callee))
                direct.append((e.span, decl.name))
                if caller is not None:
                    graph[caller].add(decl.name)
            elif isinstance(e.callee, Name) and decl is None:
                items.append(SubsetItem("library-call", e.span))
            else:
                indirect.append((e.span, caller, e.callee.ctype))

    for fn in ast.functions:
        caller = fn.name
        graph[caller] = set()
        walk_exprs(fn.body, visit)
    caller = None
    for g in ast.globals:
        walk_exprs(g, visit)
    report = SubsetReport(address_taken=tuple(taken), calls=graph)
    targets = []        # (span, possible targets) of each pointer call
    for span, fn, sig in indirect:
        names = report.fp_targets(ast, sig)
        targets.append((span, names))
        if fn is not None:
            graph[fn].update(names)
    recursive = frozenset(f for f in graph if f in _reachable(graph, graph[f]))
    items.extend(SubsetItem("recursive-call", span)
                 for span, name in direct if name in recursive)
    items.extend(SubsetItem("recursive-call", span)
                 for span, names in targets if recursive.intersection(names))

    report.unmodelable_items = sorted(set(items),
                                      key=lambda i: (i.span, i.kind))
    report.recursive = recursive
    return report
