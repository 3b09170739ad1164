"""Dependency graph construction and pollution propagation.

For a normalized program this module builds a directed graph with one
vertex per variable and an edge (y, x) whenever x may take a value
derived from y.  Store statements route their edges to the base
variables the written pointer may target, resolved by a flow-insensitive
address-taken analysis.  One walk labels, for each unmodelable item, the
vertices it pollutes directly (`initial_labels`); the polluted set is
the reachability closure of their union, computed once.  A call
that inlining did not eliminate labels its result, the bases of its
pointer arguments and every global its callee, or a function it may
call, may write (`SubsetReport.written_globals`); when one of them
stores through a pointer, it labels every variable a pointer may point
to as well.  This module reads only the normalized program and its
SubsetReport, not the AST.

The graph and the address-taken analysis are built on first use, so a
unit without unmodelable items pays for neither unless the graph is
asked for (`--dump graph`, `DependencyGraph.edges`).
"""

from __future__ import annotations

from functools import cached_property

from .frontend.ast import ArrayType, PointerType, StructType, same_type
from . import normalize as N


TOP = object()  # unknown points-to set


class DependencyGraph:
    """The dependency graph of the normalized program `prog`, built on
    first use.  `adj` maps every vertex to the set of its successors;
    `edges`, the (src, dst) pairs, is derived from it when read.  Store
    edges come from `analysis`, the program's `_BaseAnalysis`."""

    def __init__(self, prog, analysis=None):
        self.prog = prog
        if analysis is not None:
            self.analysis = analysis

    @cached_property
    def analysis(self):
        return _BaseAnalysis(self.prog)

    @cached_property
    def adj(self):
        adj = {v: set() for v in self.prog.decls}
        for s in self.prog.walk():
            srcs, dsts = _stmt_edges(s, self.analysis)
            if not (srcs and dsts):
                continue
            for v in srcs:
                adj.setdefault(v, set()).update(dsts)
            for v in dsts:
                adj.setdefault(v, set())
        return adj

    @property
    def vertices(self):
        return self.adj.keys()

    @cached_property
    def edges(self):
        return {(a, b) for a, succ in self.adj.items() for b in succ}

    def successors(self, v):
        return self.adj.get(v, ())

    def dump(self):
        """Deterministic textual form, one `a -> b` line per edge."""
        lines = [f"{a} -> {b}" for a, b in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")


def _pointee(ctype):
    if isinstance(ctype, PointerType):
        return ctype.target
    if isinstance(ctype, ArrayType):
        return ctype.elem
    return None


def _is_pointerish(ctype):
    return isinstance(ctype, (PointerType, ArrayType))


class _BaseAnalysis:
    """Flow-insensitive address-taken analysis over the whole program.

    pts maps a pointer variable to a set of base variable names, or TOP
    when it may point anywhere (loaded from memory or returned by an
    unmodelable call).
    """

    def __init__(self, prog):
        self.prog = prog
        self.pts = {}
        self.address_taken = set()
        self._run()

    def _decl_type(self, name):
        d = self.prog.decls.get(name)
        return d.ctype if d else None

    def _run(self):
        flows = []
        for s in self.prog.walk():
            if not isinstance(s, N.NAssign):
                continue
            hint = self._hint(s)
            if hint is not None and hint[0] == "var":
                self.address_taken.add(hint[1])
            # whether `_flow` is None depends on the statement, not on pts
            if self._flow(s) is not None:
                flows.append(s)
        changed = True
        while changed:
            changed = False
            for s in flows:
                new = self._flow(s)
                old = self.pts.get(s.lhs, set())
                if old is TOP:
                    continue
                if new is TOP:
                    self.pts[s.lhs] = TOP
                    changed = True
                elif not new <= old:
                    self.pts[s.lhs] = old | new
                    changed = True

    def _hint(self, s):
        """The base of the address op `s`: `("var", v)` for an address
        within the variable `v`, `("ptr", p)` for one computed from the
        pointer `p`, or None.  Without a `base_hint` it is read from the
        operand itself."""
        if s.op not in ("addr", "member_addr", "elem_addr", "pmember_addr"):
            return None
        if s.base_hint is not None:
            return s.base_hint
        a = s.args[0]
        if s.op in ("addr", "member_addr"):
            return ("var", a.name)
        if s.op == "elem_addr" and isinstance(self._decl_type(a.name),
                                              ArrayType):
            return ("var", a.name)
        return ("ptr", a.name)

    def _flow(self, s):
        """Points-to contribution of one assignment, or None."""
        lt = self._decl_type(s.lhs)
        if not _is_pointerish(lt) and s.op not in N.ADDR_OPS:
            return None
        if s.op == "funcaddr":
            return set()
        hint = self._hint(s)
        if hint is not None:
            kind, name = hint
            return {name} if kind == "var" else self.pts.get(name, set())
        if s.op in ("copy", "+", "-"):
            out = set()
            for a in s.args:
                if isinstance(a, N.VarRef) and \
                        _is_pointerish(self._decl_type(a.name)):
                    p = self.pts.get(a.name, set())
                    if p is TOP:
                        return TOP
                    out |= p
                    if isinstance(self._decl_type(a.name), ArrayType):
                        out.add(a.name)
            return out
        if s.op in ("deref", "member", "index"):
            return TOP  # pointer loaded from memory
        return None

    def bases(self, name):
        """Base variable set for `name`, a pointer-, array- or
        function-pointer-typed variable, with the conservative fallback
        to all address-taken variables of compatible pointee type when
        nothing is resolvable."""
        t = self._decl_type(name)
        if isinstance(t, ArrayType):
            return {name}
        p = self.pts.get(name, set())
        if p is not TOP and p:
            return set(p)
        # unresolved or unknown: every address-taken variable whose type
        # can contain the pointee
        want = _pointee(t)
        out = set()
        for v in self.address_taken:
            vt = self._decl_type(v)
            if vt is None or want is None:
                out.add(v)
            elif same_type(vt, want) or \
                    (isinstance(vt, ArrayType) and same_type(vt.elem, want)):
                out.add(v)
            elif isinstance(vt, StructType):
                out.add(v)  # member of v may have the pointee type
        return out

    def pointees(self):
        """Every variable a pointer may point to: the address-taken ones
        and every base of a resolved points-to set."""
        out = set(self.address_taken)
        for p in self.pts.values():
            if p is not TOP:
                out |= p
        return out


def _stmt_edges(s, analysis):
    """The edges contributed by one simple statement, per the graph
    rules, as (sources, destinations): an edge runs from every source to
    every destination."""
    if isinstance(s, N.NAssign):
        return [v for a in s.args for v in N.atom_vars(a)], (s.lhs,)
    if isinstance(s, N.NStore):
        srcs = N.atom_vars(s.value) + N.atom_vars(s.ptr)
        return srcs, store_bases(s, analysis) if srcs else ()
    if isinstance(s, N.NUnmodelableCall):
        argvars = [v for a in s.args for v in N.atom_vars(a)]
        dsts = _pointer_arg_bases(s, analysis)
        if s.lhs:
            dsts.add(s.lhs)
        return argvars, dsts
    return (), ()


def store_bases(s, analysis):
    """The base variables the store `s` may write."""
    out = set()
    for v in N.atom_vars(s.ptr):
        out |= analysis.bases(v)
    return out


def _pointer_arg_bases(s, analysis):
    out = set()
    for a in s.args:
        for v in N.atom_vars(a):
            t = analysis._decl_type(v)
            if _is_pointerish(t):
                out |= analysis.bases(v)
    return out


def initial_labels(prog, analysis):
    """The vertices each item of `prog.report.unmodelable_items` labels
    directly, in report order, for the items some statement of `prog` is
    tagged with (matched by span); an item inlining left out has no
    entry."""
    report = prog.report
    by_span = {}
    for s in prog.walk():
        tag = getattr(s, "item", None)
        if tag is None:
            continue
        seeds = by_span.setdefault(tag.span, set())
        if isinstance(s, N.NAssign):
            seeds.add(s.lhs)
        elif isinstance(s, N.NUnmodelableCall):
            if s.lhs:
                seeds.add(s.lhs)
            seeds |= _pointer_arg_bases(s, analysis)
            seeds |= report.written_globals(prog.ast, s.func)
            if report.stores_through_pointer(prog.ast, s.func):
                seeds |= analysis.pointees()
    return {item: by_span[item.span] for item in report.unmodelable_items
            if item.span in by_span}


def propagate(g, seeds):
    """Reachability closure of `seeds` in `g`."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for w in g.successors(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def analyze_pollution(prog, report):
    """The dependency graph, the initial labels of each unmodelable item
    found in `prog` (`initial_labels`), and the closure of their union."""
    g = DependencyGraph(prog)
    if not report.unmodelable_items:
        return g, {}, set()
    labels = initial_labels(prog, g.analysis)
    return g, labels, propagate(g, set().union(*labels.values()))
