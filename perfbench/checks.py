"""Output checks for the benchmark, all run outside the timed region.

* `script_problems`: an SMT-LIB script is well formed -- parentheses
  balance, every versioned (`@`) symbol is declared exactly once before
  it is used, and every `QUERY:` echo is followed by one `check-sat`.
* `interpreters_disagree`: the source interpreter and the
  normalized-program interpreter return the same value on a program.
* `probe_solver`: whether a one-query script gets a real verdict.
"""

from __future__ import annotations

import re

from invarc.cli import build_pipeline
from invarc.diagnostics import InvarcError
from invarc.frontend import parse_translation_unit
from invarc.frontend.classify import classify_constructs
from invarc.interp import run_normalized, run_source
from invarc.normalize import to_simple_assignments
from invarc.solver import discover_solver, run_solver

_STRING = re.compile(r'"[^"]*"')
_DECLARE = re.compile(r"\(declare-const (\S+) ")
_VERSIONED = re.compile(r"[^\s()]*@[^\s()]*")


def script_problems(text):
    """Structural defects of a rendered script, as messages (none: [])."""
    problems = []
    declared = set()
    depth = 0
    open_query = None        # name of the query whose check-sat is due
    for no, line in enumerate(text.splitlines(), 1):
        bare = _STRING.sub('""', line)
        depth += bare.count("(") - bare.count(")")
        if depth < 0:
            problems.append(f"line {no}: unbalanced ')'")
            depth = 0
        m = _DECLARE.match(bare)
        used = _VERSIONED.findall(bare)
        if m and "@" in m.group(1):
            if m.group(1) in declared:
                problems.append(f"line {no}: {m.group(1)} declared twice")
            declared.add(m.group(1))
            used = used[1:]
        for sym in used:
            if sym not in declared:
                problems.append(f"line {no}: {sym} used before declaration")
        if line.startswith('(echo "QUERY:'):
            if open_query is not None:
                problems.append(f"line {no}: query {open_query} has no "
                                "check-sat")
            open_query = line[len('(echo "QUERY:'):-2]
        elif line == "(check-sat)":
            if open_query is None:
                problems.append(f"line {no}: check-sat outside a query")
            open_query = None
    if depth:
        problems.append(f"{depth} unclosed '('")
    if open_query is not None:
        problems.append(f"query {open_query} has no check-sat")
    return problems


def interpreters_disagree(program, rng, trials=3):
    """A message when the two interpreters return different values for
    `program` on `trials` seeded argument vectors, else None."""
    ast = parse_translation_unit(program.source)
    prog = to_simple_assignments(ast, classify_constructs(ast),
                                 program.entry)
    params = [p.name for p in ast.function(program.entry).params]
    for _ in range(trials):
        args = [rng.randint(-3, 3) for _ in params]
        want = run_source(ast, program.entry, args).ret
        got = run_normalized(prog, dict(zip(params, args))).ret
        if want != got:
            return f"{program.name}{tuple(args)}: source {want}, " \
                   f"normalized {got}"
    return None


PROBE_SOURCE = "int f(int a) { a = a + 1; return a; }"


def probe_solver(workdir, cfg=None):
    """The solver configuration when a one-query script gets a `sat` or
    `unsat` verdict from it, else None.  The script is written under
    `workdir`."""
    try:
        cfg = cfg or discover_solver(timeout_ms=5_000, workdir=str(workdir))
        enc = build_pipeline(PROBE_SOURCE)[-1]
        enc.script.add_query("probe", "(not (= 1 1))")
        verdict = run_solver(enc.script, cfg)["probe"]
    except (InvarcError, OSError):
        return None
    return cfg if verdict in ("sat", "unsat") else None
