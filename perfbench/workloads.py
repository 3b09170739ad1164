"""Seeded generators for the benchmark's C programs.

Each workload draws a fixed number of programs from one seed.  Program
sizes are log-uniform between a floor and a cap, stratified so that every
seed covers the range evenly: the median of a run then tracks the fixed
per-program cost and its 90th percentile the growth with size, and
neither moves much from seed to seed.  The seed picks the sizes within
their strata and the whole program text; invarc only ever sees the text.

Style follows the oracle suites' generators (``tests/genprog.py``): plain
``random.Random(seed)`` streams, C text assembled line by line, and the
same arithmetic operator set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from genprog import _BINOPS

PROGRAMS_PER_RUN = 100
_CMPS = ("<", "<=", "==", "!=", ">", ">=")


@dataclass(frozen=True)
class Program:
    name: str
    entry: str
    source: str
    size: int           # the workload's size knob (branches, helpers, ...)
    runnable: bool      # nothing flagged unmodelable: both interpreters agree

    @property
    def lines(self):
        return self.source.count("\n") + 1


def log_uniform_sizes(rng, count, lo, hi):
    """`count` (slice, size) pairs, one size drawn in each of `count` equal
    slices of [log lo, log hi], in shuffled order."""
    a, b = math.log(lo), math.log(hi)
    sizes = [(i, round(math.exp(a + (i + rng.random()) * (b - a) / count)))
             for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _operand(rng, names):
    return rng.choice(names) if rng.random() < 0.75 \
        else str(rng.randint(-3, 3))


def _arith(rng, names, width):
    """A parenthesised sum of `width` terms; `*` only scales by a constant,
    so values stay small enough for the interpreters."""
    terms = []
    for _ in range(width):
        op = rng.choice(_BINOPS)
        x = rng.choice(names)
        if op == "*":
            terms.append(f"({x} * {rng.randint(-2, 3)})")
        else:
            terms.append(f"({x} {op} {_operand(rng, names)})")
    out = terms[0]
    for t in terms[1:]:
        out = f"{out} {rng.choice('+-')} {t}"
    return out


def _cond(rng, names):
    return f"{rng.choice(names)} {rng.choice(_CMPS)} {_operand(rng, names)}"


# -- branch_loop --------------------------------------------------------------

def branch_loop_c(seed, n_branches):
    """One function of `n_branches` ifs over eight scalars, every other
    top-level unit a bounded while loop, writing through pointers to
    address-taken locals."""
    rng = random.Random(seed)
    scalars = ["r", "u", "v", "w", "y", "z", "g", "h"]
    readable = ["a", "b", "c", "acc", "aux"] + scalars
    lines = ["int bl(int a, int b, int c) {",
             "  int keep = c;",
             "  int acc = 0;",
             "  int aux = 1;",
             "  int r = a;",
             "  int u = b;",
             "  int v = 0;",
             "  int w = 1;",
             "  int y = a - b;",
             "  int z = 2;",
             "  int g = c + 1;",
             "  int h = 3;",
             "  int i = 0;",
             "  int *p = &acc;",
             "  int *q = &aux;"]

    def assign(pad):
        if rng.random() < 0.25:
            ptr = rng.choice("pq")
            lines.append(f"{pad}*{ptr} = *{ptr} + {rng.choice(readable)};")
        else:
            lines.append(f"{pad}{rng.choice(scalars)} = "
                         f"{_arith(rng, readable, rng.randint(1, 2))};")

    def branch(pad, depth):
        lines.append(f"{pad}if ({_cond(rng, readable)}) {{")
        assign(pad + "  ")
        made = 1
        if depth < 2 and rng.random() < 0.3:
            made += branch(pad + "  ", depth + 1)
        if rng.random() < 0.8:
            lines.append(f"{pad}}} else {{")
            assign(pad + "  ")
        lines.append(f"{pad}}}")
        return made

    made = unit = 0
    while made < n_branches:
        unit += 1
        if unit % 2 == 0:
            lines.append("  i = 0;")
            lines.append(f"  while (i < {rng.randint(1, 3)}) {{")
            assign("    ")
            made += branch("    ", 1)
            lines.append("    i = i + 1;")
            lines.append("  }")
        else:
            made += branch("  ", 0)
    lines.append("  return r + acc + aux;")
    lines.append("}")
    return "\n".join(lines)


# -- call_tree ----------------------------------------------------------------

_MAX_DEPTH = 10   # the inliner's limit is 32


def call_tree_c(seed, n_helpers, closed=False):
    """Many small helpers over a struct pointer and an array, calling each
    other in a shallow DAG that the normalizer inlines into `main`, some
    through a function pointer.  Unless `closed`, a few helpers call
    undefined library functions, one calls a recursive helper and a few
    take a member's address: the constructs invarc flags as unmodelable."""
    rng = random.Random(seed)
    parent, depth = [None], [0]
    for k in range(1, n_helpers):
        p = rng.choice([j for j in range(k) if depth[j] < _MAX_DEPTH])
        parent.append(p)
        depth.append(depth[p] + 1)
    children = {k: [] for k in range(n_helpers)}
    for k in range(1, n_helpers):
        children[parent[k]].append(k)
    leaves = [k for k in range(n_helpers) if not children[k]]
    # a few extra edges to leaves turn the tree into a DAG
    for _ in range(max(1, n_helpers // 10)):
        k = rng.randrange(n_helpers)
        leaf = rng.choice(leaves)
        if leaf > k:
            children[k].append(leaf)
    libcalls = set() if closed else \
        set(rng.sample(range(n_helpers), max(1, n_helpers // 25)))
    rec_caller = None if closed else rng.randrange(n_helpers)

    lines = ["struct Rec { int f0; int f1; int f2; };", "",
             "int lf_add(int x, int y) {", "  return x + y;", "}", "",
             "int lf_sub(int x, int y) {", "  return x - y;", "}", ""]
    if rec_caller is not None:
        lines += ["int rec(int n) {", "  if (n <= 1) {", "    return 1;",
                  "  }", "  return n + rec(n - 1);", "}", ""]
    fields = ("f0", "f1", "f2")
    # helpers are emitted callees first, so every call has a definition
    for k in reversed(range(n_helpers)):
        names = ["x", "t"]
        body = [f"int h{k}(struct Rec *s, int *arr, int x) {{",
                f"  int t = s->{rng.choice(fields)} + arr[{rng.randint(0, 3)}];"]
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.4:
                body.append(f"  s->{rng.choice(fields)} = "
                            f"{_arith(rng, names, 1)};")
            elif roll < 0.7:
                body.append(f"  arr[{rng.randint(0, 3)}] = "
                            f"{_arith(rng, names, 1)};")
            else:
                body.append(f"  t = {_arith(rng, names, 2)};")
        for j in children[k]:
            body.append(f"  t = t + h{j}(s, arr, {_operand(rng, names)});")
        if rng.random() < 0.15:
            body.append("  int (*fp)(int, int);")
            body.append(f"  fp = &{rng.choice(('lf_add', 'lf_sub'))};")
            body.append(f"  t = fp(t, {_operand(rng, names)});")
        if rng.random() < 0.08 and not closed:
            body.append(f"  int *m = &s->{rng.choice(fields)};")
            body.append("  *m = *m + t;")
        if k in libcalls:
            body.append(f"  t = t + ext_probe{k % 3}(s, t);")
        if k == rec_caller:
            body.append("  t = t + rec(3);")
        body.append(f"  if ({_cond(rng, names)}) {{")
        body.append(f"    s->{rng.choice(fields)} = t;")
        body.append("  }")
        body.append("  return t;")
        body.append("}")
        lines += body + [""]
    lines += ["int main(int a, int b) {",
              "  struct Rec s;",
              "  s.f0 = a;",
              "  s.f1 = b;",
              "  s.f2 = 0;",
              "  int arr[4];",
              "  arr[0] = a;",
              "  arr[1] = b;",
              "  arr[2] = 1;",
              "  arr[3] = 2;",
              "  int keep = a;",
              "  int r = h0(&s, arr, b);",
              "  b = b + 1;",     # leaves one entry-exit query
              "  return r + s.f0 + arr[0];",
              "}"]
    return "\n".join(lines)


# -- straight_line ------------------------------------------------------------

def straight_line_c(seed, n_stmts):
    """Long straight-line arithmetic with wide expressions; one parameter
    is reassigned so the program keeps an entry-exit query."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"]
    lines = ["int sl(int a, int b, int c, int d) {", "  int keep = a;"]
    reassign = rng.randrange(n_stmts)
    for k in range(n_stmts):
        expr = _arith(rng, names[-12:], rng.randint(3, 6))
        lines.append(f"  int x{k} = {expr};")
        names.append(f"x{k}")
        if k == reassign:
            lines.append(f"  {rng.choice('bcd')} = x{k};")
    lines.append(f"  return {names[-1]} + b + c + d;")
    lines.append("}")
    return "\n".join(lines)


# -- workloads ----------------------------------------------------------------

def _branch_loop(seed, size, stratum):
    return "bl", branch_loop_c(seed, size), True


def _call_tree(seed, size, stratum):
    # one program in four, evenly over the sizes, is free of flagged
    # constructs, so the interpreter check has call_tree programs to run
    closed = stratum % 4 == 0
    return "main", call_tree_c(seed, size, closed), closed


def _straight_line(seed, size, stratum):
    return "sl", straight_line_c(seed, size), True


# name -> (generator, smallest size, largest size)
WORKLOADS = {
    "branch_loop": (_branch_loop, 8, 72),
    "call_tree": (_call_tree, 4, 32),
    "straight_line": (_straight_line, 8, 100),
}


def generate(workload, seed, count=PROGRAMS_PER_RUN):
    """The workload's programs for `seed`, in a seeded order."""
    make, lo, hi = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    programs = []
    for i, (stratum, size) in enumerate(log_uniform_sizes(rng, count, lo, hi)):
        entry, source, runnable = make(rng.getrandbits(64), size, stratum)
        programs.append(Program(f"{workload}-{i}", entry, source, size,
                                runnable))
    return programs
