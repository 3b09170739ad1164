"""SMT-LIB 2 encoding of an abstracted normalized program.

The encoding is single-assignment: every program variable maps to a
chain of versioned solver symbols (`v@0`, `v@1`, ...), and memory is a
record of Addr-indexed arrays (one per scalar sort) threaded through the
statement sequence the same way.  Branches encode both arms and merge
with ITE terms; loops are modeled as a single nondeterministically
guarded iteration from havocked head symbols, with the symbols at three
points, pre-loop, loop head and body end, recorded so the invariant
engine can compare them.  Address-taken variables, and arrays used as a
value, live in the memory arrays at distinct base addresses; whenever no
precise encoding exists the affected symbol is left unconstrained, which
weakens but never unsounds a verdict.

Terms are immutable `Term(op, args, sort)` trees: a symbol or literal
is a leaf with no arguments, and every builder below returns a tree of
the SMT-LIB sort it has.  Two terms are equal when their trees are.
Queries are terms too, and so are sorts, with no sort of their own:
`Int` is a leaf and `(Array Int Int)` applies `Array` to two sorts, as
in SMT-LIB.  Text is written only by `SolverScript.render`, by
`Datatype.text` and in error messages, and read only by `parse_term`.

Calls arrive inlined by the normalizer.  A call through a function
pointer is an `if` chain whose conditions compare the pointer with
function addresses, distinct constants; its last arm, an unmodelable
call with no item, leaves the result and memory unconstrained.

An `if` arm or a loop body journals the term each name had before its
first write there, and undoes its own writes when it ends, so the merge
that follows visits only the names the arms wrote, and no stage copies
the whole environment: a loop record holds the non-temporary variables,
memory and the modified names.  The encoder's work is linear in the
number of writes; `Encoding.work` counts it.

Each assertion the encoder writes defines one fresh symbol from symbols
declared before it: `(= s t)`, or `(=> g (= s t))` for a division that
is bound only when its divisor is nonzero.  `SolverScript` renders only
the cone of influence of the queries, with the same solver answers as
the whole script (the argument is in its docstring).

`encode_program` builds no term that no candidate can read: it slices
the program first (Weiser's program slicing; cone of influence
reduction in model checking) and encodes only the slice.  A name is
relevant when a candidate can compare its symbols, or a kept statement
reads it:
- every param and global is relevant (entry-exit candidates), and so is
  every name written inside a loop: loop conditions are not encoded, so
  a loop-written variable left out would keep its pre symbol at the
  head and look invariant;
- MEM and every address-taken scalar, which mirrors its cell, are
  relevant as soon as one of them is;
- a statement that writes a relevant name is kept, and the names its
  encoding reads become relevant: MEM for a read of memory, a store's
  array or struct and its index;
- the variables of the condition of each `if` around a kept statement
  become relevant, once per `if`.  A condition compares atoms, so the
  statements before the `if` that compute its operands are kept as any
  other statement is.
Loops are always kept, so every loop record, and every candidate, stays.
The memory layout (`MemoryLayout`) comes from the whole program: a
variable whose `&` the slice drops still lives in memory.  Only the
non-temporary names, the relevant names and the address-taken scalars
are declared, in declaration order, so no symbol's number exceeds its
number in the whole program's encoding.  A variable outside the slice
keeps one symbol from entry on; it is written in no loop, so a loop
record holds that symbol at all three points, which is all its
candidates compare.  `exit_env` holds only the names the slice keeps
exact: reading `$result` or a dropped local raises `KeyError`, never a
stale symbol.  `Encoder(prog).encode_program()` encodes every statement
and variable; the slice's script equals its script up to the numbers of
the symbols and the base addresses of the variables and functions whose
address only dropped statements take.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from fractions import Fraction

from ._records import field, record, replace
from .diagnostics import EncodeError, UnsupportedOperator, UnsupportedType
from .frontend.ast import (
    ArrayType, DoubleType, PointerType, StructType, VOID,
)
from . import normalize as N


class _Unencodable(Exception):
    """Internal signal: fall back to an unconstrained symbol."""


MEM = "%mem"   # pseudo-variable for the threaded memory record
_ABSENT = object()   # journaled value of a variable with no symbol


class Term(namedtuple("Term", ("op", "args", "sort"))):
    """An SMT-LIB term: `op` applied to `args`, of sort `sort`.  A symbol
    or a literal is a leaf, with `args == ()` and its text as `op`."""
    __slots__ = ()

    @property
    def text(self):
        if self.args:
            return f"({self.op} {' '.join([a.text for a in self.args])})"
        return self.op


_TOKEN = re.compile(
    r'\s+|;[^\n]*|(\(|\)|"[^"]*"|\|[^|]*\||[^\s()";|]+)|(.)', re.S)


def parse_term(text):
    """The one term that the SMT-LIB text `text` holds, with no sorts;
    raises EncodeError on any other text."""
    stack = [[]]
    for m in _TOKEN.finditer(text):
        tok, stray = m.groups()
        if stray is not None:   # an unclosed string or quoted symbol
            raise EncodeError(f"not one SMT-LIB term: {text}")
        if tok is None:
            continue
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop() if len(stack) > 1 else []
            if len(done) < 2 or done[0].args:
                raise EncodeError(f"not one SMT-LIB term: {text}")
            stack[-1].append(Term(done[0].op, tuple(done[1:]), None))
        else:
            stack[-1].append(Term(tok, (), None))
    if len(stack) != 1 or len(stack[0]) != 1:
        raise EncodeError(f"not one SMT-LIB term: {text}")
    return stack[0][0]


def leaves(t, out=None):
    """The text of every leaf of `t`, appended to the list `out` if one
    is given."""
    if not t.args:
        return [t.op]
    out = [] if out is None else out
    for a in t.args:
        if a.args:
            leaves(a, out)
        else:
            out.append(a.op)
    return out


class Datatype(namedtuple("Datatype", ("name", "ctor", "fields"))):
    """A record sort `name`: one constructor with (selector, sort)
    fields."""
    __slots__ = ()

    @property
    def text(self):
        fields = " ".join(f"({sel} {sort.text})" for sel, sort in self.fields)
        return f"(declare-datatype {self.name.text} (({self.ctor} {fields})))"


INT = Term("Int", (), None)
REAL = Term("Real", (), None)
BOOL = Term("Bool", (), None)
ADDR = Term("Addr", (), None)
MEM_SORT = Term("Mem", (), None)


def array_sort(key, value):
    return Term("Array", (key, value), None)


ZERO = Term("0", (), INT)
ONE = Term("1", (), INT)


def lit_int(n):
    t = Term(str(abs(n)), (), INT)
    return t if n >= 0 else Term("-", (t,), INT)


def lit_real(x):
    f = Fraction(x)
    t = Term(f"{abs(f.numerator)}.0", (), REAL)
    if f.denominator != 1:
        t = Term("/", (t, Term(f"{f.denominator}.0", (), REAL)), REAL)
    return t if f >= 0 else Term("-", (t,), REAL)


NULL_ADDR = Term("mk-addr", (ZERO, ZERO), ADDR)
_MEM_FIELD = {INT: "mem-int", REAL: "mem-real", ADDR: "mem-ptr"}
_MEM_ARRAY = {sort: array_sort(ADDR, sort) for sort in _MEM_FIELD}
DATATYPES = (
    Datatype(ADDR, "mk-addr", (("addr-base", INT), ("addr-off", INT))),
    Datatype(MEM_SORT, "mk-mem", tuple((fld, _MEM_ARRAY[sort])
                                       for sort, fld in _MEM_FIELD.items())),
)


def ite(cond, a, b):
    return Term("ite", (cond, a, b), a.sort)


def as_real(t):
    if t.sort == INT:
        return Term("to_real", (t,), REAL)
    return t


def join_arith(a, b):
    if a.sort == REAL or b.sort == REAL:
        return as_real(a), as_real(b), REAL
    return a, b, a.sort


def binary(op, a, b):
    """C's `a op b` for an arithmetic operator (`+ - *`), a term of the
    joined sort, or for a comparison, a Bool term."""
    a, b, sort = join_arith(a, b)
    if op in ("+", "-", "*"):
        return Term(op, (a, b), sort)
    if op in ("==", "!="):
        eq = Term("=", (a, b), BOOL)
        return eq if op == "==" else Term("not", (eq,), BOOL)
    return Term(op, (a, b), BOOL)


def _cdiv_cmod(a, b):
    """C's truncating division and remainder of `a` by `b`."""
    q = Term("div", (Term("abs", (a,), INT), Term("abs", (b,), INT)),
             INT)
    cdiv = ite(binary(">=", binary("*", a, b), ZERO), q,
               Term("-", (q,), INT))
    return {"cdiv": cdiv,
            "cmod": binary("-", a, binary("*", b, Term("cdiv", (a, b), INT)))}


PARAMS = (Term("a", (), INT), Term("b", (), INT))
FUNCTIONS = _cdiv_cmod(*PARAMS)   # name -> body over PARAMS


def coerce(t, sort):
    """`t` as a term of `sort`, widening Int to Real; None if it cannot
    be."""
    if t.sort == sort:
        return t
    if sort == REAL and t.sort == INT:
        return as_real(t)
    return None


_ZERO = {INT: ZERO, REAL: Term("0.0", (), REAL), ADDR: NULL_ADDR}


def zero(sort):
    """The zero value of a scalar sort: 0, 0.0 or the null address."""
    if sort not in _ZERO:
        raise _Unencodable(f"no zero of sort {sort.text}")
    return _ZERO[sort]


def nonzero(t):
    """The Bool term that `t` is not zero, C's truth of a scalar."""
    return Term("distinct", (t, zero(t.sort)), BOOL)


def offset_addr(p, off, op="+"):
    """The address `p` moved by `off` cells, forward (`+`) or back
    (`-`)."""
    return Term("mk-addr", (
        Term("addr-base", (p,), INT),
        Term(op, (Term("addr-off", (p,), INT), off), INT)), ADDR)


def _mem_array(m, sort):
    return Term(_MEM_FIELD[sort], (m,), _MEM_ARRAY[sort])


def mem_with(m, addr, val):
    """The memory record `m` with `val` stored at `addr` in the array of
    its sort."""
    if val.sort not in _MEM_FIELD:
        raise _Unencodable("value sort has no memory array")
    arrays = {sort: _mem_array(m, sort) for sort in _MEM_FIELD}
    a = arrays[val.sort]
    arrays[val.sort] = Term("store", (a, addr, val), a.sort)
    return Term("mk-mem", tuple(arrays.values()), MEM_SORT)


def merge(cond, names, env, end1, end2):
    """The ite on `cond` of each of `names` whose terms differ at the
    ends of two arms.  `end1` and `end2` map the names each arm wrote to
    their terms at its end; `env` holds the terms before the arms."""
    out = {}
    for v in names:
        a = end1.get(v) or env[v]
        b = end2.get(v) or env[v]
        if a != b:
            out[v] = ite(cond, a, b)
    return out


def _undo(env, before):
    """Give each name of `before` back its term there, or drop it from
    `env` where it maps to _ABSENT; returns each name mapped to the term
    it had in `env` until now."""
    end = {}
    for var, old in before.items():
        end[var] = env[var]
        if old is _ABSENT:
            del env[var]
        else:
            env[var] = old
    return end


def definition(t):
    """The symbol, guard (None without one) and value of an assertion
    that `SolverScript.define` wrote."""
    guard, eq = t.args if t.op == "=>" else (None, t)
    return eq.args[0], guard, eq.args[1]


@record
class SolverScript:
    """An SMT-LIB 2 script of terms, with named query blocks.

    `main` holds terms in order: a leaf declares its symbol, and any
    other term is the assertion that defines one symbol (`define`).
    Struct datatypes, base-address constants and the queries' asserted
    terms sit beside it.  `render`, the only place that writes text,
    sends only the cone of influence of the queries: a symbol is live
    when a query reads it, or a kept definition does, and a
    declaration or a definition is kept only when its symbol is live,
    found in one backward pass over `main`.  The preamble, datatypes and
    base addresses with their `distinct` assertions are kept whole.

    The answers stay the same.  A dropped symbol appears in no kept term,
    and each dropped definition reads only symbols declared before the
    one it defines, so any model of the kept terms extends to the
    dropped symbols, taken in declaration order: a query is `sat` on the
    sliced script exactly when it is on the whole one.  Slicing only
    removes assertions, so a query the sliced script proves (`unsat`)
    holds on the whole script as well.
    """

    datatypes: list = field(default_factory=list)  # Datatype per struct
    bases: dict = field(default_factory=dict)      # const name -> group
    main: list = field(default_factory=list)
    queries: list = field(default_factory=list)    # (name, asserted term)
    _declared: set = field(default_factory=set)
    _query_names: set = field(default_factory=set)
    _defined: set = field(default_factory=set)

    def declare(self, name, sort):
        """Declare the symbol `name` of `sort`; returns its leaf."""
        if name in self._declared:
            raise EncodeError(f"symbol {name} declared twice")
        self._declared.add(name)
        sym = Term(name, (), sort)
        self.main.append(sym)
        return sym

    def define(self, sym, value, guard=None):
        """Assert `(= sym value)`, or `(=> guard (= sym value))`, where
        `value` and `guard` read only symbols declared before `sym`."""
        if sym.op in self._defined:
            raise EncodeError(f"symbol {sym.op} defined twice")
        self._defined.add(sym.op)
        t = Term("=", (sym, value), BOOL)
        self.main.append(t if guard is None
                         else Term("=>", (guard, t), BOOL))

    def add_base(self, name, group):
        if name not in self.bases:
            self.bases[name] = group
        return Term(name, (), INT)

    def add_query(self, name, query):
        """Add the query `name`, which asserts the Bool term `query`, or
        the one term that the text `query` holds (`parse_term`)."""
        if name in self._query_names:
            raise EncodeError(f"duplicate query name {name}")
        if isinstance(query, str):
            query = parse_term(query)
        self._query_names.add(name)
        self.queries.append((name, query))

    def base_terms(self):
        """The base-address constants, each group with its `distinct`
        assertion, in the convention of `main`."""
        out = []
        groups = {}
        for name in sorted(self.bases):
            groups.setdefault(self.bases[name], []).append(
                Term(name, (), INT))
        for g in sorted(groups):
            consts = groups[g]
            out += consts
            if g == "base":
                consts = [ZERO] + consts
            if len(consts) > 1:
                out.append(Term("distinct", tuple(consts), BOOL))
        return out

    def cone(self, roots=None):
        """The terms of `main` that the terms `roots`, by default the
        queries, reach through definitions and guards, in order."""
        if roots is None:
            roots = [q for _, q in self.queries]
        live = set().union(*map(leaves, roots))
        kept = []
        for t in reversed(self.main):
            if not t.args:
                if t.op in live:
                    kept.append(t)
            elif definition(t)[0].op in live:
                kept.append(t)
                live.update(leaves(t))
        kept.reverse()
        return kept

    def render(self):
        out = ["(set-logic ALL)"]
        out += [d.text for d in DATATYPES]
        params = " ".join(f"({p.op} {p.sort.text})" for p in PARAMS)
        out += [f"(define-fun {name} ({params}) {body.sort.text} {body.text})"
                for name, body in FUNCTIONS.items()]
        out += [d.text for d in self.datatypes]
        for t in self.base_terms() + self.cone():
            out.append(f"(assert {t.text})" if t.args
                       else f"(declare-const {t.op} {t.sort.text})")
        for name, q in self.queries:
            out += ["(push 1)", f'(echo "QUERY:{name}")', f"(assert {q.text})",
                    "(check-sat)", "(pop 1)"]
        return "\n".join(out) + "\n"


@record
class LoopRecord:
    """The symbols of one loop at the three points its candidates
    compare.  Each of `pre`, `head` and `bend` (body end) maps the
    non-temporary variables, MEM and the names the loop writes to their
    symbols there; a name the loop writes has a fresh symbol at `head`,
    so it is modified exactly when `head[v] != pre[v]`."""
    loop_id: int
    span: object
    pre: dict
    head: dict
    bend: dict


@record
class Encoding:
    script: SolverScript
    entry_env: dict                 # var -> symbol Term at entry
    exit_env: dict
    loops: list                     # LoopRecord, in encounter order
    points: list                    # each statement encoded, in order
    work: int = 0                   # env entries copied + names merged

    def loop_spans(self):
        """Loop id -> source span, for the spans that exactly one loop
        record has.  A callee inlined twice gives two records one span,
        and an execution's events at that span mix both copies."""
        count = Counter(lr.span for lr in self.loops)
        return {lr.loop_id: lr.span for lr in self.loops
                if count[lr.span] == 1}


def struct_sort(name):
    return Term(f"T${name}", (), None)


def sort_of(ctype, structs):
    """Solver sort of a C type; `structs` maps struct names to their
    definitions.  Integers, booleans and function pointers are Int."""
    if isinstance(ctype, DoubleType):
        return REAL
    if isinstance(ctype, PointerType):
        return ADDR
    if isinstance(ctype, StructType):
        if ctype.name not in structs:
            raise UnsupportedType(f"unknown struct {ctype.name}")
        return struct_sort(ctype.name)
    if isinstance(ctype, ArrayType):
        return array_sort(INT, sort_of(ctype.elem, structs))
    if ctype == VOID:
        raise UnsupportedType("void has no solver sort")
    return INT


class MemoryLayout:
    """Where the variables of a normalized program live, found once on
    the whole program.  `at_vars` live in memory: those whose address is
    taken, and the arrays used as a value, which decays to the address of
    their first cell.  `at_scalars`, the integer and real ones among
    them, also keep a symbol of their own, mirrored in their cell."""

    def __init__(self, prog):
        self.decls = prog.decls
        self.designators = prog.designators
        self.structs = {sd.name: sd for sd in prog.ast.struct_defs} \
            if prog.ast else {}
        self.at_vars = self._address_taken(prog)
        self.at_scalars = sorted(
            v for v in self.at_vars if v in self.decls
            and self.sort(self.decls[v].ctype) in (INT, REAL))

    def sort(self, ctype):
        """The solver sort of `ctype`, or None where it has none."""
        try:
            return sort_of(ctype, self.structs)
        except UnsupportedType:
            return None

    def _address_taken(self, prog):
        at = set()
        decls = self.decls
        for s in prog.walk():
            if isinstance(s, N.NAssign) and s.op in N.ADDR_OPS \
                    and s.op != "funcaddr":
                hint = s.base_hint
                if hint and hint[0] == "var":
                    at.add(hint[1])
                elif s.op in ("addr", "member_addr") and s.args and \
                        isinstance(s.args[0], N.VarRef):
                    at.add(s.args[0].name)
            if isinstance(s, N.NAssign) and s.op not in ("index", "elem_addr"):
                values = s.args
            elif isinstance(s, N.NStore):
                values = [s.value]
            elif isinstance(s, N.NUnmodelableCall):
                values = s.args
            else:
                continue
            for a in values:
                if isinstance(a, N.VarRef) and a.name in decls \
                        and isinstance(decls[a.name].ctype, ArrayType):
                    at.add(a.name)
        return at

    def _aggregate(self, a):
        """Whether the atom `a` names an array or a struct."""
        decl = self.decls.get(a.name) if isinstance(a, N.VarRef) else None
        return decl is not None and \
            isinstance(decl.ctype, (ArrayType, StructType))

    def in_cells(self, a):
        """Whether the atom `a` names an array or struct in memory, whose
        elements or members are its own cells, at its base address."""
        return self._aggregate(a) and a.name in self.at_vars

    def reads_memory(self, s):
        """Whether the `index` or `member` statement `s` reads memory:
        it does but for an element of an array, or a member of a struct,
        with a symbol of its own."""
        a = s.args[0]
        return not self._aggregate(a) or a.name in self.at_vars

    def writes(self, s):
        """The names that the encoding of the statement `s` can bind, not
        counting those of the statements it holds.  Assigning a variable
        in memory writes its cell, and a store writes memory unless it
        updates an array or struct with a symbol of its own."""
        kind = type(s)
        if kind is N.NAssign or kind is N.NHavoc:
            v = s.lhs if kind is N.NAssign else s.var
            return (v, MEM) if v in self.at_vars else (v,)
        if kind is N.NStore:
            target = self.register_target(s)
            return (target[0] if target else MEM,)
        if kind is N.NUnmodelableCall:
            return (s.lhs, MEM) if s.lhs else (MEM,)
        return ()

    def register_target(self, s):
        """`(array, index atom)` for the store `s` into an element of an
        array with a symbol of its own, which it updates in place; None for
        a store into memory.  A store into a member of a struct never gets
        one: the `member_addr` before it puts the struct in memory."""
        d = self.designators.get(
            s.ptr.name if isinstance(s.ptr, N.VarRef) else None)
        if d is None or d[0] in self.at_vars:
            return None
        decl = self.decls.get(d[0])
        if decl is None or not isinstance(decl.ctype, ArrayType) \
                or self.sort(decl.ctype) is None:
            return None
        return d


class Encoder:
    def __init__(self, prog, havocked=None, layout=None, declared=None):
        """An encoder of `prog` with the memory layout `layout` (by
        default `prog`'s own), declaring a symbol for each variable of
        `declared` (by default, for every variable).  `havocked` holds the
        variables the abstraction havocs (`AbstractProgram.havocked`),
        every `NHavoc` variable among them: a write to memory does not
        reread an address-taken scalar of `havocked` from its cell."""
        self.prog = prog
        self.ast = prog.ast
        self.layout = layout or MemoryLayout(prog)
        self.structs = self.layout.structs
        self.declared = declared
        self.script = SolverScript()
        self.counter = 0
        self.env = {}
        self.scopes = []    # per open arm: var -> term before its first write
        self.rank = {}      # var -> counter when it entered env: key order
        self.work = 0
        self.loops = []
        self.points = []
        self.havocked = havocked or ()
        self.at_vars = self.layout.at_vars
        self.at_scalars = self.layout.at_scalars
        # what a loop record keeps besides the modified names
        self.recorded = [MEM] + [n for n, d in prog.decls.items()
                                 if d.kind != "temp"]
        encode_types(self.ast.struct_defs if self.ast else [], self.script)

    # -- environment --------------------------------------------------------

    def _set(self, var, term):
        """Bind `var` to `term`: the one write to the environment.  Every
        caller declares `term` by `fresh` first, so `counter` has grown
        since the last write and orders the names as they were bound."""
        env = self.env
        if self.scopes:
            self.scopes[-1].setdefault(var, env.get(var, _ABSENT))
        if var not in env:
            self.rank[var] = self.counter
        env[var] = term

    def _arm(self, stmts):
        """Encode `stmts` as an arm: see `_end_arm`."""
        self.scopes.append({})
        self.encode_stmts(stmts)
        return self._end_arm()

    def _end_arm(self):
        """Undo the writes of the arm opened last; returns each name it
        wrote, mapped to its term at its end."""
        before = self.scopes.pop()
        self.work += len(before)
        return _undo(self.env, before)

    def _snapshot(self, names):
        self.work += len(names)
        env = self.env
        return {v: env[v] for v in names}

    def _merge(self, cond, names, end1, end2):
        """Bind each of `names` to the ite on `cond` of its terms at the
        ends of two arms, where they differ (see `merge`)."""
        self.work += len(names)
        for v, t in merge(cond, names, self.env, end1, end2).items():
            self.bind(v, t)

    # -- symbols ------------------------------------------------------------

    def fresh(self, var, sort):
        self.counter += 1
        return self.script.declare(f"{var}@{self.counter}", sort)

    def bind(self, var, term):
        sym = self.fresh(var, term.sort)
        self.script.define(sym, term)
        self._set(var, sym)
        return sym

    def unconstrained(self, var, sort):
        sym = self.fresh(var, sort)
        self._set(var, sym)
        return sym

    # -- memory -------------------------------------------------------------

    def base_const(self, var):
        return self.script.add_base(f"base${var}", "base")

    def cell(self, var, off=ZERO):
        """The address of the cell at offset `off` of the memory-resident
        variable `var`."""
        return Term("mk-addr", (self.base_const(var), off), ADDR)

    def fn_addr_const(self, fname):
        return self.script.add_base(f"addr${fname}", "fnaddr")

    def mem(self):
        return self.env[MEM]

    def mem_store(self, addr_term, val_term):
        self.bind(MEM, mem_with(self.mem(), addr_term, val_term))
        self._reread_at_scalars()

    def havoc_mem(self):
        self.unconstrained(MEM, MEM_SORT)
        self._reread_at_scalars()

    def mem_select(self, addr_term, sort):
        if sort not in _MEM_FIELD:
            raise _Unencodable("sort not memory-resident")
        return Term("select", (_mem_array(self.mem(), sort), addr_term),
                    sort)

    def _reread_at_scalars(self):
        for v in self.at_scalars:
            if v in self.havocked:
                continue
            sort = self.layout.sort(self.prog.decls[v].ctype)
            self.bind(v, self.mem_select(self.cell(v), sort))

    def _mirror_at_scalar(self, var):
        """After assigning an address-taken scalar, write its cell."""
        if var not in self.at_vars:
            return
        if self.env[var].sort not in (INT, REAL):
            return
        self.bind(MEM, mem_with(self.mem(), self.cell(var), self.env[var]))

    # -- program ------------------------------------------------------------

    def encode_program(self):
        self.unconstrained(MEM, MEM_SORT)
        declared = self.declared
        for name, decl in self.prog.decls.items():
            if declared is not None and name not in declared:
                continue
            sort = self.layout.sort(decl.ctype)
            if sort is None:
                continue
            if name in self.at_vars and sort not in (INT, REAL):
                continue  # memory-resident aggregate: no direct symbol
            self.unconstrained(name, sort)
        # link address-taken scalars to their initial cells
        for v in self.at_scalars:
            self.script.define(
                self.env[v], self.mem_select(self.cell(v), self.env[v].sort))
        entry_env = self._snapshot(self.env)
        self.encode_stmts(self.prog.body)
        return Encoding(script=self.script, entry_env=entry_env,
                        exit_env=self._snapshot(self.env), loops=self.loops,
                        points=self.points, work=self.work)

    def encode_stmts(self, stmts):
        for s in stmts:
            self.encode_stmt(s)
            self.points.append(s)

    def encode_stmt(self, s):
        if isinstance(s, N.NAssign):
            self.encode_assign(s)
        elif isinstance(s, N.NStore):
            self.encode_store(s)
        elif isinstance(s, N.NHavoc):
            if s.var in self.env:
                self.unconstrained(s.var, self.env[s.var].sort)
                self._mirror_at_scalar(s.var)
        elif isinstance(s, N.NUnmodelableCall):
            # after abstraction, only the last arm of a call through a
            # pointer, which has no item: its result and memory are free
            if s.lhs and s.lhs in self.env:
                self.unconstrained(s.lhs, self.env[s.lhs].sort)
            self.havoc_mem()
        elif isinstance(s, N.NNop):
            pass
        elif isinstance(s, N.NIf):
            self.encode_branch(s)
        elif isinstance(s, N.NWhile):
            self.encode_loop(s)
        else:
            raise EncodeError(f"cannot encode {type(s).__name__}")

    # -- simple assignments -------------------------------------------------

    def encode_assign(self, s):
        if s.lhs not in self.env:
            if s.lhs in self.at_vars:
                self.havoc_mem()  # memory-resident aggregate rewritten
            return
        sort = self.env[s.lhs].sort
        try:
            term = coerce(self.rhs_term(s, sort), sort)
        except _Unencodable:
            term = None
        if term is None:
            self.unconstrained(s.lhs, sort)
        else:
            self.bind(s.lhs, term)
        self._mirror_at_scalar(s.lhs)

    def atom_term(self, a, want=None):
        if isinstance(a, N.Lit):
            if a.kind == "null":
                return NULL_ADDR
            if a.kind == "real" or want == REAL:
                return lit_real(a.value)
            return lit_int(a.value)
        if a.name not in self.env:
            decl = self.prog.decls.get(a.name)
            if a.name in self.at_vars and isinstance(decl.ctype, ArrayType):
                return self.cell(a.name)     # a memory-resident array
            raise _Unencodable(f"{a.name} has no symbol")
        return self.env[a.name]

    def rhs_term(self, s, want_sort):
        op = s.op
        if op == "copy":
            return self.atom_term(s.args[0], want_sort)
        if op == "neg":
            t = self.atom_term(s.args[0])
            return Term("-", (t,), t.sort)
        if op == "not":
            t = self.atom_term(s.args[0])
            return ite(Term("=", (t, zero(t.sort)), BOOL), ONE, ZERO)
        if op in N.BINARY_OPS:
            return self.binop_term(s, op)
        if op == "funcaddr":
            return self.fn_addr_const(s.func)
        if op in N.ADDR_OPS:
            return self.address(s)[0]
        if op in ("index", "member") and not self.layout.reads_memory(s):
            # an element or member of a variable with a symbol of its own
            rec = self.atom_term(s.args[0])
            ctype = self.prog.decls[s.args[0].name].ctype
            if op == "index":
                return Term("select", (rec, self.atom_term(s.args[1])),
                            self.layout.sort(ctype.elem))
            return Term(f"{rec.sort.op}${s.fld}", (rec,), self.layout.sort(
                self.structs[ctype.name].member_type(s.fld)))
        if op in ("deref", "index", "member"):
            addr, sort = self.address(s)
            return self.mem_select(addr, sort or want_sort)
        raise _Unencodable(f"op {op}")

    def binop_term(self, s, op):
        a = self.atom_term(s.args[0])
        b = self.atom_term(s.args[1])
        if op in ("+", "-") and ADDR in (a.sort, b.sort):
            p, i = (a, b) if a.sort == ADDR else (b, a)
            if i.sort != INT:
                raise _Unencodable("pointer arithmetic with non-integer")
            return offset_addr(p, i, op)
        if op in ("+", "-", "*"):
            return binary(op, a, b)
        if op == "/":
            a, b, sort = join_arith(a, b)
            fn = "cdiv" if sort == INT else "/"
            return self.guarded_div(s, Term(fn, (a, b), sort), b)
        if op == "%":
            if a.sort != INT or b.sort != INT:
                raise _Unencodable("modulo on non-integers")
            return self.guarded_div(s, Term("cmod", (a, b), INT), b)
        if op in ("<", "<=", ">", ">=", "=="):
            return ite(binary(op, a, b), ONE, ZERO)
        if op == "!=":
            return ite(binary("==", a, b), ZERO, ONE)
        if op in ("&&", "||"):
            fn = "and" if op == "&&" else "or"
            return ite(Term(fn, (nonzero(a), nonzero(b)), BOOL), ONE, ZERO)
        raise UnsupportedOperator(op)

    def guarded_div(self, s, value, divisor):
        """Bind division results only when the divisor is nonzero, so a
        verdict can never lean on division-by-zero behavior."""
        sym = self.fresh(f"div${s.lhs}", value.sort)
        self.script.define(sym, value, guard=nonzero(divisor))
        return sym

    def address(self, s):
        """The address of the cell that the address op `s` (`addr`,
        `elem_addr`, `member_addr`, `pmember_addr`) computes, or that the
        memory read `s` (`deref`, or an `index` or `member` for which
        `MemoryLayout.reads_memory` holds) reads, and the sort of that
        cell where its declaration fixes it: None for `addr`, for `deref`
        and for an element through a pointer.  Any variable under `addr`,
        and an array or struct in memory, is addressed by its own cells; a
        pointer by its value."""
        op, a = s.op, s.args[0]
        if op == "addr":
            if a.name not in self.at_vars:
                raise _Unencodable("address of unregistered variable")
            return self.cell(a.name), None
        if op == "deref":
            return self._pointer(a), None
        if op in ("index", "elem_addr"):
            off = self.atom_term(s.args[1])
            if not self.layout.in_cells(a):
                return offset_addr(self._pointer(a), off), None
            sort = self.layout.sort(self.prog.decls[a.name].ctype.elem)
        else:   # member, member_addr, pmember_addr
            decl = self.prog.decls.get(getattr(a, "name", None))
            ctype = decl.ctype if decl else None
            if op == "pmember_addr" and isinstance(ctype, PointerType):
                ctype = ctype.target
            if not isinstance(ctype, StructType):
                raise _Unencodable("member of non-struct")
            sd = self.structs[ctype.name]
            sort = self.layout.sort(sd.member_type(s.fld))
            off = lit_int(sd.member_ordinal(s.fld))
        if sort not in _MEM_FIELD:
            raise _Unencodable("no cell of this sort")
        if op == "pmember_addr":
            return offset_addr(self._pointer(a), off), sort
        if not self.layout.in_cells(a):
            raise _Unencodable("member of a struct outside memory")
        return self.cell(a.name, off), sort

    def _pointer(self, a):
        """The value of the atom `a`, an address."""
        p = self.atom_term(a)
        if p.sort != ADDR:
            raise _Unencodable("access through a non-address")
        return p

    # -- stores -------------------------------------------------------------

    def encode_store(self, s):
        try:
            self._store_precise(s)
        except _Unencodable:
            self.havoc_mem()

    def _store_precise(self, s):
        target = self.layout.register_target(s)
        if target is None:    # a store through an address term
            p = self.atom_term(s.ptr)
            if p.sort != ADDR:
                raise _Unencodable("store through non-address")
            self.mem_store(p, self.atom_term(s.value))
            return
        base, idx = target
        old = self.env[base]
        i = self.atom_term(idx)
        esort = self.layout.sort(self.prog.decls[base].ctype.elem)
        v = coerce(self.atom_term(s.value, esort), esort)
        if v is None:
            raise _Unencodable("element sort mismatch")
        self.bind(base, Term("store", (old, i, v), old.sort))

    # -- branches -----------------------------------------------------------

    def cond_term(self, c):
        """The Bool term of a branch condition, or None for a NondetCond
        or a condition that cannot be encoded."""
        if isinstance(c, N.NondetCond):
            return None
        try:
            args = [self.atom_term(a) for a in c.args]
            return nonzero(*args) if c.op == "nonzero" else binary(c.op, *args)
        except _Unencodable:
            return None

    def encode_branch(self, s):
        cond = self.cond_term(s.cond)
        if cond is None:
            cond = self.fresh("guard", BOOL)
        then, els = self._arm(s.then), self._arm(s.els)
        # only a name an arm wrote can differ; one absent before is dropped.
        # Merge in env order, as the names were first bound.
        env = self.env
        names = sorted((then.keys() | els.keys()) & env.keys(),
                       key=self.rank.__getitem__)
        self._merge(cond, names, then, els)

    # -- loops --------------------------------------------------------------

    def modified_vars(self, stmts):
        out = set()
        for s in N.walk_stmts(stmts):
            out.update(self.layout.writes(s))
        if MEM in out:
            out.update(self.at_scalars)
        return {v for v in out if v in self.env or v == MEM}

    def encode_loop(self, s):
        modified = self.modified_vars(s.body + s.recheck)
        env = self.env
        names = [v for v in self.recorded if v in env]
        names += sorted(modified.difference(names))
        pre = self._snapshot(names)
        guard = self.fresh("guard", BOOL)
        for v in sorted(modified):
            self.unconstrained(v, pre[v].sort)
        head = self._snapshot(names)
        # the body ends before the condition's calls run again
        self.scopes.append({})
        self.encode_stmts(s.body)
        bend = self._snapshot(head)
        self.encode_stmts(s.recheck)
        body = self._end_arm()
        # writes outside `modified` are dropped: the exit keeps the head
        self._merge(guard, sorted(modified), body, {})
        self.loops.append(LoopRecord(loop_id=s.loop_id, span=s.span,
                                     pre=pre, head=head, bend=bend))


def encode_types(struct_defs, script):
    """Record datatype declarations for every struct, dependency-ordered."""
    emitted = set()
    by_name = {sd.name: sd for sd in struct_defs}

    def emit(sd):
        if sd.name in emitted:
            return
        emitted.add(sd.name)
        for _m, t in sd.members:
            base = t
            while isinstance(base, ArrayType):
                base = base.elem
            if isinstance(base, StructType) and base.name in by_name:
                emit(by_name[base.name])
        sort = struct_sort(sd.name)
        script.datatypes.append(Datatype(sort, f"mk${sd.name}", tuple(
            (f"{sort.op}${m}", sort_of(t, by_name)) for m, t in sd.members)))

    for sd in struct_defs:
        emit(sd)


class _Slice:
    """The statements of a program that can reach a candidate's symbols,
    and the names they write: see the module docstring.  One pass over
    the statements indexes their writes, one worklist pass over names
    closes the criterion, and one more rebuilds the kept statements.
    `work` counts statement visits, name pops and writer visits."""

    def __init__(self, prog, layout):
        self.layout = layout
        # an address-taken scalar stands for MEM: one is relevant when
        # the other is
        self.canon = dict.fromkeys(layout.at_scalars, MEM)
        self.writers = {}     # name -> simple statements that write it
        self.enclosing = {}   # id of a statement -> innermost enclosing NIf
        self.looped = set()   # names written inside a loop
        self.loops = []
        self.kept = set()     # ids of the kept simple statements and ifs
        self.work = 0
        self._index(prog.body, None, False)
        self.relevant = self._close(prog)
        if MEM in self.relevant:
            self.relevant.update(layout.at_scalars)
        self.program = replace(prog, body=self._rebuild(prog.body))

    def _index(self, stmts, enclosing, in_loop):
        self.work += len(stmts)
        writers, canon = self.writers, self.canon
        for s in stmts:
            if enclosing is not None:
                self.enclosing[id(s)] = enclosing
            if isinstance(s, N.NIf):
                self._index(s.then, s, in_loop)
                self._index(s.els, s, in_loop)
                continue
            if isinstance(s, N.NWhile):
                self.loops.append(s)
                self._index(s.body, enclosing, True)
                self._index(s.recheck, enclosing, True)
                continue
            for v in self.layout.writes(s):
                v = canon.get(v, v)
                ws = writers.get(v)
                if ws is None:
                    writers[v] = [s]
                elif ws[-1] is not s:
                    ws.append(s)
                if in_loop:
                    self.looped.add(v)

    def _reads(self, s):
        """The names whose symbols the encoding of the simple statement
        `s` can read."""
        kind = type(s)
        if kind is N.NAssign:
            op, args = s.op, s.args
            if op in ("addr", "member_addr", "funcaddr"):
                return ()
            if op == "elem_addr" and self.layout.in_cells(args[0]):
                args = args[1:]     # a cell address of a variable in memory
            names = [a.name for a in args if isinstance(a, N.VarRef)]
            if op == "deref" or op in ("member", "index") and \
                    self.layout.reads_memory(s):
                names.append(MEM)
            return names
        if kind is N.NStore:
            target = self.layout.register_target(s)
            if target is None:
                return [*N.atom_vars(s.ptr), *N.atom_vars(s.value), MEM]
            base, idx = target
            return [base, *N.atom_vars(idx), *N.atom_vars(s.value)]
        return ()

    def _keep_ifs(self, f, todo):
        """Keep the `if` statement `f`, if any, and every one around it,
        adding the names that the conditions of the newly kept ones read
        to `todo`."""
        canon, kept = self.canon, self.kept
        while f is not None and id(f) not in kept:
            kept.add(id(f))
            todo.extend([canon.get(v, v) for v in N.cond_vars(f.cond)])
            f = self.enclosing.get(id(f))

    def _close(self, prog):
        canon, kept, writers = self.canon, self.kept, self.writers
        enclosing = self.enclosing
        todo = [canon.get(v, v) for v, d in prog.decls.items()
                if d.kind in ("param", "global")]
        todo += self.looped
        for loop in self.loops:
            self._keep_ifs(enclosing.get(id(loop)), todo)
        relevant = set()
        pops = visits = 0
        while todo:
            v = todo.pop()
            pops += 1
            if v in relevant:
                continue
            relevant.add(v)
            for s in writers.get(v, ()):
                visits += 1
                if id(s) not in kept:
                    kept.add(id(s))
                    self._keep_ifs(enclosing.get(id(s)), todo)
                    todo.extend([canon.get(r, r) for r in self._reads(s)])
        self.work += pops + visits
        return relevant

    def _rebuild(self, stmts):
        out = []
        for s in stmts:
            if isinstance(s, N.NWhile):
                out.append(replace(s, body=self._rebuild(s.body),
                                   recheck=self._rebuild(s.recheck)))
            elif id(s) in self.kept:
                if isinstance(s, N.NIf):
                    s = replace(s, then=self._rebuild(s.then),
                                els=self._rebuild(s.els))
                out.append(s)
        return out


def encode_program(prog, havocked=None):
    """Encode the slice of a normalized (usually abstracted) program that
    its candidates read, in the memory layout of the whole program; main
    entry.  See the module docstring for what the encoding holds."""
    layout = MemoryLayout(prog)
    sl = _Slice(prog, layout)
    declared = {v for v, d in prog.decls.items() if d.kind != "temp"}
    declared |= sl.relevant
    declared.update(layout.at_scalars)
    enc = Encoder(sl.program, havocked, layout, declared).encode_program()
    enc.exit_env = {v: t for v, t in enc.exit_env.items() if v in sl.relevant}
    enc.work += sl.work
    return enc
