"""Candidate invariant enumeration, query emission, and verdicts.

A candidate is a single variable compared at two program points:
function entry/exit, across a loop (a composite of the three
one-iteration checks: pre = head, head = body-end, head = exit), or
between loop head and body end.  A candidate is reported invariant only
when the solver proves every required equality (unsat negation);
anything else, including timeouts and errors, yields unknown.  Without
a solver the queries are only tried by in-process refutation
(`refute.py`), which never proves an invariant.

Only queries that can change a verdict are emitted.  The loop induction
is deliberately one iteration deep: the encoder gives each variable the
loop modifies a fresh head constant that no assertion defines.  Every
assertion defines one symbol from symbols declared before it, so every
assertion that reads the head defines a symbol declared after the head.
A model of the rest can therefore give the head any value, one other
than pre's included, and extend to the later symbols through their
definitions: pre = head is satisfiable, and the `loop` candidate of a
modified variable is settled as unknown with no query at all.  For a
variable the loop leaves alone, pre, head and exit are one symbol, and
only head = body-end is queried; keeping it keeps the candidate sound
even where `modified_vars` misses a write.

Before any query is emitted, one concrete execution settles the
head-bend candidates it can (`settle_by_execution`).  The source
interpreter runs the entry function once, on a fixed-seed input, and
every variable whose value differs between the start of some iteration
of a loop and that iteration's body end is not invariant there.  The
script over-approximates the program: the interpreter shares the
encoding's value model (mathematical integers, exact rationals, C
division), a modified variable's loop head is unconstrained, and the
body's definitions follow the C statements.  So the concrete iteration
extends to a model of the script, the candidate's query is `sat`, and
its verdict is `unknown` with or without the query.  The execution
gives up, settling nothing, on a runtime trap or when its step budget,
proportional to the size of the normalized program, runs out.  It is
not made for a program with a construct that `classify` flags: the
abstraction havocs what such a construct touches, and the interpreter
cannot run a library call.  Entry-exit candidates stay with the solver.
`--oracle` (`cli.check_oracle`) judges reported invariants by the same
rule, `Execution.holds`, on every input vector of a domain.
"""

from __future__ import annotations

import random

from ._records import field, record
from .diagnostics import StepBudgetExceeded, UnknownSymbol
from .encoder import INT, REAL, binary
from .frontend.ast import IntType, LongType

REPORT_VERSION = 1

POINT_NAMES = {
    "entry-exit": ("function-entry", "function-exit"),
    "loop": ("pre-loop", "post-loop"),
    "head-bend": ("loop-head", "loop-body-end"),
}


@record
class Candidate:
    variable: str
    kind: str                  # key of POINT_NAMES
    loop_id: int = None
    pairs: list = field(default_factory=list)   # (leaf, leaf) to prove equal
    query_names: list = field(default_factory=list)
    verdict: str = None        # 'invariant' | 'unknown' (filled later)
    time_ms: float = 0.0

    @property
    def points(self):
        return POINT_NAMES[self.kind]


def _candidate_vars(prog, enc, havocked):
    """Scalar, non-temporary, non-havocked variables in source order."""
    out = []
    for name, decl in prog.decls.items():
        if name in havocked or decl.kind == "temp":
            continue
        sym = enc.entry_env.get(name)
        if sym is not None and sym.sort in (INT, REAL):
            out.append((name, decl))
    return out


# the settling execution: its inputs' seed and range, and its step budget
# per statement of the normalized program
EXECUTION_SEED = 0
EXECUTION_INPUTS = (-3, 3)
STEPS_PER_STMT = 40


def enumerate_candidates(ab, enc):
    """Candidates for an AbstractProgram and its Encoding, those that one
    execution settles included (`settle_by_execution`)."""
    cands = build_candidates(ab, enc)
    settle_by_execution(ab.program, enc, cands)
    return cands


def build_candidates(ab, enc):
    """Candidates for an AbstractProgram and its Encoding, before the
    execution."""
    prog = ab.program
    cands = []
    cvars = _candidate_vars(prog, enc, ab.havocked)
    for name, decl in cvars:
        if decl.kind in ("param", "global") and name in enc.exit_env:
            cands.append(Candidate(
                variable=name, kind="entry-exit",
                pairs=[(enc.entry_env[name], enc.exit_env[name])]))
    for lr in enc.loops:
        for name, _ in cvars:
            pre, head, bend = lr.pre[name], lr.head[name], lr.bend[name]
            if head != pre:
                # modified in the loop: (pre, head) is sat, see above
                loop = Candidate(variable=name, kind="loop",
                                 loop_id=lr.loop_id, verdict="unknown")
            else:
                # exit is head, as only modified variables are merged
                loop = Candidate(variable=name, kind="loop",
                                 loop_id=lr.loop_id, pairs=[(head, bend)])
            cands.append(loop)
            cands.append(Candidate(
                variable=name, kind="head-bend", loop_id=lr.loop_id,
                pairs=[(head, bend)]))
    return cands


def settle_by_execution(prog, enc, cands):
    """Run the normalized program `prog`'s source once and settle each open
    head-bend candidate of `cands` that the run breaks (`Execution.holds`):
    its verdict becomes unknown and it keeps no pair to query.  Returns the
    settled candidates."""
    open_ = [c for c in cands if c.kind == "head-bend"
             and c.verdict is None and c.pairs[0][0] != c.pairs[0][1]]
    if not open_ or prog.report.unmodelable_items:
        return []
    rng = random.Random(EXECUTION_SEED)
    inputs = iter(lambda: rng.randint(*EXECUTION_INPUTS), None)   # endless
    run = execute(prog.ast, prog.entry, inputs, enc.loop_spans(),
                  STEPS_PER_STMT * sum(1 for _ in prog.walk()))
    if run is None:
        return []
    settled = [c for c in open_ if run.holds(c) is False]
    for c in settled:
        c.verdict, c.pairs = "unknown", []
    return settled


# the snapshot pair a loop candidate compares, per kind
_LOOP_PHASES = {"loop": ("pre", "post"), "head-bend": ("head", "bend")}


def input_count(fn):
    """How many input values an execution of the function `fn` reads: one
    per integer parameter."""
    return sum(isinstance(p.ctype, (IntType, LongType)) for p in fn.params)


def execute(ast, entry, inputs, loop_spans, budget):
    """Run the function `entry` of the source `ast` in the source
    interpreter, within `budget` steps: each integer parameter takes the
    next of the values `inputs`, and any other its type's default value.
    `loop_spans` is the encoding's `Encoding.loop_spans()`.  Returns the
    Execution, or None when the run traps or exhausts its budget."""
    from .interp import InterpError, default_value, run_source

    structs = {sd.name: sd for sd in ast.struct_defs}
    inputs = iter(inputs)
    args = [next(inputs) if isinstance(p.ctype, (IntType, LongType))
            else default_value(p.ctype, structs)
            for p in ast.function(entry).params]
    try:
        return Execution(run_source(ast, entry, args, budget=budget),
                         loop_spans)
    except (InterpError, StepBudgetExceeded):
        return None


class Execution:
    """One concrete run of the entry function, and its verdict on each
    candidate.  The loop-change index of a candidate kind is built when
    the first candidate of that kind asks, so settlement builds only the
    head-bend one."""

    def __init__(self, run, loop_spans):
        self.run = run
        self.loop_spans = loop_spans
        self._changes = {}   # kind -> the run's loop-change index

    def holds(self, c):
        """Whether the candidate `c`'s variable keeps its value in this
        run: its entry value against its final one for entry-exit, and
        each `_LOOP_PHASES` pair of its loop's snapshots for a loop kind.
        None where the run does not give both values, or where the loop
        has no span of its own."""
        run = self.run
        if c.kind == "entry-exit":
            a = run.entry_values.get(c.variable)
            b = run.finals.get(c.variable)
            return None if a is None or b is None else a == b
        index = self._changes.get(c.kind)
        if index is None:
            index = self._changes[c.kind] = \
                run.loop_changes(*_LOOP_PHASES[c.kind])
        compared, changed = index.get(self.loop_spans.get(c.loop_id),
                                      ((), ()))
        if c.variable not in compared:
            return None
        return c.variable not in changed


def emit_query(cand, script, name):
    """Append the query blocks for one candidate; returns the names of
    the queries actually emitted (identical symbols are skipped)."""
    declared = script._declared
    names = []
    for i, (a, b) in enumerate(cand.pairs):
        if a == b:
            continue
        for sym in (a, b):
            if sym.op not in declared:
                raise UnknownSymbol(f"symbol {sym.op} not declared in script")
        qname = f"{name}.{i}"
        script.add_query(qname, binary("!=", a, b))
        names.append(qname)
    cand.query_names = names
    return names


def combine_verdicts(raw_list):
    if all(v == "unsat" for v in raw_list):
        return "invariant"
    return "unknown"


@record
class InvariantReport:
    program: str
    candidates: list
    polluted: list
    removed_stmts: list
    solver_time_ms: float = 0.0
    diagnostics: list = field(default_factory=list)
    undecided: list = field(default_factory=list)   # queries left unanswered

    def to_json(self):
        import json     # imported on first use, as most reports are text
        return json.dumps({
            "version": REPORT_VERSION,
            "program": self.program,
            "candidates": [
                {
                    "variable": c.variable,
                    "points": list(c.points),
                    "loop": c.loop_id,
                    "verdict": c.verdict,
                    "time_ms": round(c.time_ms, 3),
                }
                for c in self.candidates
            ],
            "polluted": sorted(self.polluted),
            "removed_stmts": [str(s) for s in self.removed_stmts],
            "solver_time_ms": round(self.solver_time_ms, 3),
            "diagnostics": self.diagnostics,
        }, indent=2)

    def to_text(self):
        rows = [("VARIABLE", "POINTS", "LOOP", "VERDICT")]
        for c in self.candidates:
            a, b = c.points
            rows.append((c.variable, f"{a} .. {b}",
                         str(c.loop_id) if c.loop_id is not None else "-",
                         c.verdict))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(r[i].ljust(widths[i]) for i in range(4))
                 for r in rows]
        if self.polluted:
            lines.append("")
            lines.append("excluded as polluted: "
                         + ", ".join(sorted(self.polluted)))
        lines.extend(f"note: {d}" for d in self.diagnostics)
        return "\n".join(lines) + "\n"


def detect_invariants(ab, enc, solver, program_name="program"):
    """Full candidate pipeline: enumerate, query, solve, report.

    `solver` is called, only when the program has queries, for the
    SolverConfig to run them with.  When it returns None there is no
    solver: the queries are only tried by in-process refutation, which
    answers `sat` with a model it has checked.  The queries it leaves
    are listed in the report's `undecided`, and their candidates are
    unknown."""
    import time
    from .solver import run_solver

    cands = enumerate_candidates(ab, enc)
    for i, c in enumerate(cands):
        emit_query(c, enc.script, f"q{i}${c.variable}${c.kind}")
    queries = enc.script.queries
    cfg = solver() if queries else None
    verdicts, undecided, diagnostics, elapsed = {}, [], [], 0.0
    if cfg is not None:
        t0 = time.monotonic()
        verdicts = run_solver(enc.script, cfg)
        elapsed = (time.monotonic() - t0) * 1000.0
    elif queries:
        from .refute import refute_queries
        verdicts = dict.fromkeys(refute_queries(enc.script), "sat")
        undecided = [q for q, _ in queries if q not in verdicts]
    if undecided:
        diagnostics.append(
            f"no solver: {len(undecided)} of {len(queries)} queries were "
            f"not refuted in-process; their candidates are unknown")
    for c in cands:
        if c.verdict is not None:
            continue
        raw = [verdicts.get(q, "error") for q in c.query_names]
        c.verdict = combine_verdicts(raw)
        c.time_ms = elapsed if c.query_names else 0.0
    decls = ab.program.decls
    polluted = sorted(v for v in ab.havocked
                      if v in decls and decls[v].kind != "temp")
    return InvariantReport(
        program=program_name, candidates=cands, polluted=polluted,
        removed_stmts=[s for s in ab.removed_stmts],
        solver_time_ms=elapsed, diagnostics=diagnostics,
        undecided=undecided)
