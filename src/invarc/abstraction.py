"""Havoc abstraction of a normalized program.

Given the polluted-variable closure, rewrites the program so that
nothing downstream of an unmodelable item needs precise modeling:
assignments to polluted variables become Havoc (a fresh unknown at each
occurrence), statements that dereference polluted pointers are removed,
and branch conditions mentioning polluted variables become
nondeterministic booleans.
"""

from __future__ import annotations

from ._records import field, record, replace
from .diagnostics import InconsistentInput
from . import normalize as N
from .pollution import DependencyGraph, store_bases


@record
class AbstractProgram:
    program: N.NormalizedProgram
    havocked: set = field(default_factory=set)
    removed_stmts: list = field(default_factory=list)      # spans


def _atom_polluted(a, polluted):
    return any(v in polluted for v in N.atom_vars(a))


class _Abstractor:
    def __init__(self, prog, polluted, analysis):
        self.prog = prog
        self.polluted = polluted
        self.analysis = analysis
        self.havocked = set()
        self.removed = []

    def havoc(self, var, span):
        self.havocked.add(var)
        return N.NHavoc(var=var, span=span)

    def bases_polluted(self, s):
        """Whether every base the store `s` may write is polluted."""
        if not self.polluted:
            return False
        bases = store_bases(s, self.analysis)
        return bool(bases) and bases <= self.polluted

    def body(self, stmts):
        out = []
        for s in stmts:
            r = self.stmt(s)
            if r is not None:
                out.append(r)
        return out

    def stmt(self, s):
        p = self.polluted
        if isinstance(s, N.NAssign):
            if s.lhs in p:
                return self.havoc(s.lhs, s.span)
            return s
        if isinstance(s, N.NStore):
            if _atom_polluted(s.ptr, p) or _atom_polluted(s.value, p) \
                    or self.bases_polluted(s):
                self.removed.append(s.span)
                return None
            return s
        if isinstance(s, N.NHavoc):
            self.havocked.add(s.var)
            return s
        if isinstance(s, N.NUnmodelableCall):
            if s.item is None:
                return s    # the encoder leaves its result and memory free
            if s.lhs:
                return self.havoc(s.lhs, s.span)
            return N.NNop(span=s.span)
        if isinstance(s, N.NNop):
            return s
        if isinstance(s, N.NIf):
            return replace(s, cond=self.cond(s.cond),
                           then=self.body(s.then), els=self.body(s.els))
        if isinstance(s, N.NWhile):
            return replace(s, cond=self.cond(s.cond), body=self.body(s.body),
                           recheck=self.body(s.recheck))
        return s

    def cond(self, c):
        if any(v in self.polluted for v in N.cond_vars(c)):
            return N.NondetCond()
        return c


def abstract_program(prog, polluted, graph=None):
    if not polluted and not prog.report.unmodelable_items:
        # no item's call to drop and no name to havoc
        return AbstractProgram(program=prog)
    if graph is None:
        graph = DependencyGraph(prog)
    # closed under reachability: every polluted name is a vertex whose
    # successors are all polluted
    if not all(v in graph.adj and graph.adj[v] <= polluted
               for v in polluted):
        raise InconsistentInput(
            "polluted set is not closed under graph reachability")
    ab = _Abstractor(prog, set(polluted), graph.analysis)
    new_prog = replace(prog, body=ab.body(prog.body))
    ab.havocked |= set(polluted)
    return AbstractProgram(program=new_prog, havocked=ab.havocked,
                           removed_stmts=ab.removed)
