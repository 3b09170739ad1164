"""Deterministic random program generators for the oracle suites.

Two flavors: C source programs (straight-line, branching, mutating,
looping) fed through the whole pipeline, and directly constructed
normalized programs for the dependency-graph oracles.  Everything is seeded, so test inputs
are reproducible.
"""

import random

from invarc.frontend.ast import INT, PointerType
from invarc import normalize as N

_BINOPS = ("+", "-", "*")


def straightline_c(seed, n_stmts=8):
    rng = random.Random(seed)
    params = ["a", "b"]
    names = list(params)
    lines = ["int gen(int a, int b) {", "  int keep = a;"]
    for i in range(n_stmts):
        v = f"x{i}"
        lhs_new = rng.random() < 0.7 or len(names) < 3
        tgt = v if lhs_new else rng.choice(names[2:] if len(names) > 2
                                           else names)
        x = rng.choice(names)
        y = rng.choice(names + [str(rng.randint(-3, 3))])
        op = rng.choice(_BINOPS)
        if lhs_new:
            lines.append(f"  int {tgt} = {x} {op} {y};")
            names.append(tgt)
        else:
            lines.append(f"  {tgt} = {x} {op} {y};")
    lines.append(f"  return {rng.choice(names)};")
    lines.append("}")
    return "\n".join(lines)


def branchy_c(seed, depth=2):
    rng = random.Random(seed)
    lines = ["int gen(int a, int b, int c) {",
             "  int keep = c;",
             "  int r = 0;"]

    def block(indent, d):
        pad = "  " * indent
        if d == 0 or rng.random() < 0.3:
            src = rng.choice(["a", "b", "c", "r"])
            op = rng.choice(_BINOPS)
            k = rng.randint(-2, 2)
            lines.append(f"{pad}r = {src} {op} {k};")
            return
        cond = f"{rng.choice(['a', 'b', 'c'])} " \
               f"{rng.choice(['<', '<=', '==', '!='])} " \
               f"{rng.choice(['a', 'b', 'c', str(rng.randint(-1, 1))])}"
        lines.append(f"{pad}if ({cond}) {{")
        block(indent + 1, d - 1)
        if rng.random() < 0.7:
            lines.append(f"{pad}}} else {{")
            block(indent + 1, d - 1)
        lines.append(f"{pad}}}")

    for _ in range(rng.randint(1, 3)):
        block(1, depth)
    lines.append("  return r;")
    lines.append("}")
    return "\n".join(lines)


def mutating_c(seed, n_stmts=6):
    """Loop-free code that reassigns its parameters, some only by
    identities (`a = a + 0`), and `c` through a pointer: entry-exit
    candidates that are invariant and ones that are not."""
    rng = random.Random(seed)
    lines = ["int gen(int a, int b, int c) {", "  int *p = &c;"]

    def stmt():
        x, y = rng.choice("abc"), rng.choice("abc")
        kind = rng.randrange(5)
        if kind == 0:
            return f"{x} = {x} + 0;"
        if kind == 1:
            return f"{x} = ({x} + {y}) - {y};"
        if kind == 2:
            return f"{x} = {y} {rng.choice(_BINOPS)} {rng.randint(-2, 2)};"
        if kind == 3:
            return f"{x} = {y} {rng.choice('/%')} " \
                   f"{rng.choice(['2', '-3', 'b'])};"
        return f"*p = *p + {y};"

    for _ in range(n_stmts):
        if rng.random() < 0.3:
            cond = f"{rng.choice('abc')} {rng.choice(['<', '==', '!='])} " \
                   f"{rng.choice(['a', 'b', 'c', '0', '1'])}"
            lines.append(f"  if ({cond}) {{ {stmt()} }} else {{ {stmt()} }}")
        else:
            lines.append(f"  {stmt()}")
    lines.append("  return a;")
    lines.append("}")
    return "\n".join(lines)


def loopy_c(seed):
    rng = random.Random(seed)
    bound = rng.randint(1, 4)
    lines = ["int gen(int a, int b) {",
             "  int keep = b;",
             "  int acc = a;",
             "  int i = 0;",
             f"  while (i < {bound}) {{"]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(_BINOPS)
        src = rng.choice(["a", "b", "acc", "i", str(rng.randint(-2, 2))])
        lines.append(f"    acc = acc {op} {src};")
    if rng.random() < 0.5:
        cond = f"acc {rng.choice(['<', '>'])} {rng.randint(-2, 2)}"
        lines.append(f"    if ({cond}) {{ acc = acc + 1; }}")
    lines.append("    i = i + 1;")
    lines.append("  }")
    lines.append(f"  return {rng.choice(['acc', 'keep', 'i'])};")
    lines.append("}")
    return "\n".join(lines)


def random_normalized(seed, max_stmts=30):
    """Straight-line NormalizedProgram over ints and a few pointers."""
    rng = random.Random(seed)
    n_ints = rng.randint(4, 8)
    n_ptrs = rng.randint(0, 2)
    decls = {}
    for i in range(n_ints):
        decls[f"v{i}"] = N.NDecl(f"v{i}", INT, "local")
    for i in range(n_ptrs):
        decls[f"p{i}"] = N.NDecl(f"p{i}", PointerType(target=INT), "local")
    ints = [f"v{i}" for i in range(n_ints)]
    ptrs = [f"p{i}" for i in range(n_ptrs)]
    taken = {}          # pointer -> base int var
    body = []
    n = rng.randint(5, max_stmts)
    while len(body) < n:
        roll = rng.random()
        if ptrs and roll < 0.12:
            p = rng.choice(ptrs)
            base = rng.choice(ints)
            body.append(N.NAssign(lhs=p, op="addr",
                                  args=[N.VarRef(base)],
                                  base_hint=("var", base)))
            taken[p] = base
        elif taken and roll < 0.22:
            p = rng.choice(sorted(taken))
            val = N.VarRef(rng.choice(ints)) if rng.random() < 0.8 \
                else N.Lit(rng.randint(-3, 3), "int")
            body.append(N.NStore(ptr=N.VarRef(p), value=val))
        else:
            lhs = rng.choice(ints)
            if rng.random() < 0.25:
                a = N.VarRef(rng.choice(ints)) if rng.random() < 0.8 \
                    else N.Lit(rng.randint(-3, 3), "int")
                body.append(N.NAssign(lhs=lhs, op="copy", args=[a]))
            else:
                op = rng.choice(_BINOPS)
                a = N.VarRef(rng.choice(ints))
                b = N.VarRef(rng.choice(ints)) if rng.random() < 0.7 \
                    else N.Lit(rng.randint(-3, 3), "int")
                body.append(N.NAssign(lhs=lhs, op=op, args=[a, b]))
    return N.NormalizedProgram(entry="gen", decls=decls, body=body)


def fp_global_c(seed):
    """Calls through a function pointer whose targets write globals, by
    name, through a pointer or through a callee they inline, in straight
    code or in a loop; `u` is never written."""
    rng = random.Random(seed)
    lines = ["int g;", "int h;", "int u;",
             "int bump(int x) { h = h + x; return x; }"]
    n_targets = rng.randint(1, 3)
    for t in range(n_targets):
        body = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.randrange(5)
            if kind == 0:
                body.append(f"g = x {rng.choice(_BINOPS)} {rng.randint(-2, 2)};")
            elif kind == 1:
                body.append("x = bump(x);")
            elif kind == 2:
                body.append(f"if (x < {rng.randint(-1, 1)}) {{ g = 1; }}")
            elif kind == 3:
                body.append("{ int *p = &g; *p = x; }")
            else:
                body.append(f"x = x + {rng.randint(-1, 1)};")
        lines.append(f"int t{t}(int x) {{ {' '.join(body)} return x; }}")
    lines += ["int gen(int a, int b) {",
              "  int (*fp)(int);",
              "  fp = &t0;"]
    for t in range(1, n_targets):
        lines.append(f"  if (a < {rng.randint(-1, 1)}) {{ fp = &t{t}; }}")
    lines.append("  int r = u;")
    if rng.random() < 0.5:
        lines += ["  int i = 0;",
                  "  while (i < b) {",
                  "    r = r + fp(a);",
                  "    i = i + 1;",
                  "  }"]
    else:
        lines.append("  r = fp(b);")
    lines += ["  return r;", "}"]
    return "\n".join(lines)
