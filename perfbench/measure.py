"""Timed runs of one workload.

`measure_untraced` times the CLI's work before the solver --
`build_pipeline`, then `enumerate_candidates` and `emit_query` for every
candidate, then `SolverScript.render()` -- once per program, round-robin
over the workload's programs until the run's time is up.  `measure_traced`
makes the same calls one layer at a time, each inside a span, and also
times the untraced path on the same programs so that the tracing
overhead shows.  All checks run outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from invarc.cli import build_pipeline
from invarc.frontend.classify import classify_constructs
from invarc.frontend.lexer import lex
from invarc.frontend.parser import Parser
from invarc.frontend.typecheck import typecheck
from invarc.abstraction import abstract_program
from invarc.encoder import encode_program
from invarc.invariants import emit_query, enumerate_candidates
from invarc.normalize import to_simple_assignments
from invarc.pollution import analyze_pollution
from invarc.solver import run_solver

from checks import interpreters_disagree, script_problems

SETUP_RUNS = 9
INTERP_SAMPLE = 8
_SETUP_SNIPPET = """\
import invarc
from invarc.diagnostics import SolverNotFound
try:
    invarc.discover_solver()
except SolverNotFound:
    pass
"""


def emit_queries(ab, enc):
    """Enumerate candidates and append their queries, named as the CLI
    names them; returns the candidates."""
    cands = enumerate_candidates(ab, enc)
    for i, c in enumerate(cands):
        emit_query(c, enc.script, f"q{i}${c.variable}${c.kind}")
    return cands


def pre_solve(program):
    """Source text to rendered script: (script text, number of queries)."""
    *_, ab, enc = build_pipeline(program.source, program.entry)
    emit_queries(ab, enc)
    return enc.script.render(), len(enc.script.queries)


def start_interpreter(src_dir):
    """Wall time of a fresh interpreter that imports invarc and runs
    `discover_solver()`."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], env=env,
                   check=True)
    return time.perf_counter() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What a run measured and checked, per program."""
    programs: list
    passes: int = 0
    samples: dict = field(default_factory=lambda: defaultdict(list))
    first: dict = field(default_factory=dict)      # name -> output summary
    failures: dict = field(default_factory=dict)   # name -> first message
    setup: list = field(default_factory=list)      # interpreter starts, s

    def fail(self, program, message):
        self.failures.setdefault(program.name, message)

    def ok(self):
        return [p for p in self.programs if p.name not in self.failures]

    def check_output(self, program, text, queries):
        """Check the script's structure the first time; later repetitions
        must give the same size, query count and digest.  Returns whether
        the output passed."""
        summary = _summary(text, queries)
        first = self.first.setdefault(program.name, summary)
        if first is summary:
            problems = script_problems(text)
            if problems:
                self.fail(program,
                          "malformed script: " + "; ".join(problems[:3]))
        elif summary != first:
            self.fail(program, "output differs between repetitions")
        return program.name not in self.failures


def round_robin(outcome, seconds, step):
    """Call `step(program)` over the programs in turn until `seconds` have
    passed, finishing at least one full pass."""
    deadline = time.perf_counter() + seconds
    while True:
        for p in outcome.programs:
            if outcome.passes and time.perf_counter() >= deadline:
                return
            if p.name in outcome.failures:
                continue
            gc.collect()
            step(p)
        outcome.passes += 1
        if time.perf_counter() >= deadline:
            return


def _timed_pre_solve(outcome, p):
    """Time one pre-solve of `p`; returns (seconds, text, queries) or
    None after recording the failure."""
    t0 = time.perf_counter()
    try:
        text, queries = pre_solve(p)
    except Exception as e:   # every failure counts toward error_rate
        outcome.fail(p, f"{type(e).__name__}: {e}")
        return None
    return time.perf_counter() - t0, text, queries


def _summary(text, queries):
    data = text.encode()
    return len(data), queries, hashlib.sha256(data).hexdigest()


def warm_up(programs, n=5):
    """Run the smallest programs once so lazy set-up is not timed."""
    for p in sorted(programs, key=lambda p: p.size)[:n]:
        try:
            pre_solve(p)
        except Exception:
            pass     # the timed passes record it


def check_interpreters(outcome, seed):
    """Compare both interpreters on a seeded sample of the smaller
    runnable programs.  Programs with constructs invarc flags as
    unmodelable (library calls, recursion, member addresses) are skipped:
    the normalizer over-approximates those and leaves them to the
    pollution analysis, so the normalized program need not agree."""
    rng = random.Random(f"interp:{seed}")
    median = statistics.median(p.size for p in outcome.programs)
    pool = [p for p in outcome.programs if p.runnable and p.size <= median]
    for p in rng.sample(pool, min(INTERP_SAMPLE, len(pool))):
        try:
            msg = interpreters_disagree(p, rng)
        except Exception as e:
            msg = f"{type(e).__name__}: {e}"
        if msg:
            outcome.fail(p, f"interpreters disagree: {msg}")


def measure_untraced(programs, seconds, seed, src_dir):
    """Time every program round-robin for `seconds`; between programs,
    start SETUP_RUNS fresh interpreters spread over the run, so that the
    set-up time does not hinge on one moment of the machine's load."""
    out = Outcome(programs)
    warm_up(programs)
    start_interpreter(src_dir)       # compiles the bytecode, not counted
    start = time.perf_counter()

    def step(p):
        r = _timed_pre_solve(out, p)
        if r is not None:
            dt, text, queries = r
            if out.check_output(p, text, queries):
                out.samples[p.name].append(dt)
        due = len(out.setup) * seconds / SETUP_RUNS
        if len(out.setup) < SETUP_RUNS and time.perf_counter() - start >= due:
            out.setup.append(start_interpreter(src_dir))

    round_robin(out, seconds, step)
    while len(out.setup) < SETUP_RUNS:
        out.setup.append(start_interpreter(src_dir))
    check_interpreters(out, seed)
    return out


def end_to_end(out):
    """The end-to-end metrics of an untraced run, keyed by name."""
    ok = out.ok()
    per_program = [min(out.samples[p.name]) for p in ok]
    busy = sum(per_program)
    if len(per_program) >= 2:
        cuts = statistics.quantiles(per_program, n=20, method="inclusive")
        p50, p90 = statistics.median(per_program), cuts[17]
    else:
        p50 = p90 = busy
    return {
        "setup_s": (statistics.median(out.setup), "s"),
        "loc_per_s": (sum(p.lines for p in ok) / busy if busy else 0.0,
                      "lines/s"),
        "latency_p50_ms": (p50 * 1000.0, "ms"),
        "latency_p90_ms": (p90 * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "smt_bytes": (sum(out.first[p.name][0] for p in ok), "bytes"),
        "solver_queries": (sum(out.first[p.name][1] for p in ok), "count"),
    }


# -- traced run ---------------------------------------------------------------

class Tracer:
    """Spans (id, name, start ns, end ns, parent id, label) kept in
    memory; a program's span is labelled with the program's name."""

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, parent=None, label=None):
        rec = [len(self.spans), name, time.perf_counter_ns(), None, parent,
               label]
        self.spans.append(rec)
        try:
            yield rec[0]
        finally:
            rec[3] = time.perf_counter_ns()

    def to_json(self):
        return [{"id": i, "name": n, "start_ns": s, "end_ns": e,
                 "parent": p, "label": lb}
                for i, n, s, e, p, lb in self.spans]


LAYERS = ("lexer", "parser", "typecheck", "classify", "normalize",
          "pollution", "abstraction", "encoder", "encoder.render",
          "invariants")


def traced_pre_solve(program, tracer, parent):
    """`pre_solve` one layer at a time, each call in a span under
    `parent`; returns (script text, number of queries, layer counts)."""
    span = tracer.span
    with span("lexer", parent):
        tokens = lex(program.source)
    n_tokens = len(tokens)
    with span("parser", parent):
        ast = Parser(tokens).parse_unit()
    del tokens      # as in parse_translation_unit, which drops them here
    with span("typecheck", parent):
        typecheck(ast)
    with span("classify", parent):
        report = classify_constructs(ast)
    with span("normalize", parent):
        prog = to_simple_assignments(ast, report, program.entry)
    with span("pollution", parent):
        graph, _, polluted = analyze_pollution(prog, report)
    with span("abstraction", parent):
        ab = abstract_program(prog, polluted, graph)
    with span("encoder", parent):
        enc = encode_program(ab.program, ab.havocked)
    with span("invariants", parent):
        cands = emit_queries(ab, enc)
    with span("encoder.render", parent):
        text = enc.script.render()
    pairs = sum(len(c.pairs) for c in cands)
    counts = {
        "lexer.tokens": n_tokens,
        "classify.flagged": len(report.unmodelable_items),
        "normalize.stmts": sum(1 for _ in prog.walk()),
        "normalize.vars": len(prog.decls),
        "pollution.edges": len(graph.edges),
        "pollution.polluted_vars": len(polluted),
        "abstraction.removed_stmts": len(ab.removed_stmts),
        "encoder.symbols": len(enc.script._declared),
        "encoder.points": len(enc.points),
        "encoder.script_bytes": len(text.encode()),
        "invariants.candidates": len(cands),
        "invariants.pairs": pairs,
        "invariants.trivial": pairs - len(enc.script.queries),
    }
    return text, len(enc.script.queries), counts


def measure_traced(programs, seconds, seed, solver_cfg=None):
    """Per-layer busy time and counts, plus the untraced time of the same
    programs for the overhead; the solver runs only if `solver_cfg`."""
    out = Outcome(programs)
    tracer = Tracer()
    busy = defaultdict(lambda: defaultdict(list))   # layer -> name -> [s]
    counts = {}
    warm_up(programs)

    def step(p):
        # alternate which path runs first, so neither gets the warm caches
        first_untraced = len(out.samples[p.name]) % 2 == 1
        if first_untraced:
            r = _timed_pre_solve(out, p)
            if r is None:
                return
        try:
            with tracer.span("program", label=p.name) as root:
                text, queries, c = traced_pre_solve(p, tracer, root)
        except Exception as e:   # every failure counts toward `failed`
            out.fail(p, f"{type(e).__name__}: {e}")
            return
        if not first_untraced:
            r = _timed_pre_solve(out, p)
            if r is None:
                return
        dt, plain, plain_queries = r
        if p.name not in counts:
            counts[p.name] = c
        elif c != counts[p.name]:
            out.fail(p, "layer counts differ between repetitions")
        if _summary(text, queries) != _summary(plain, plain_queries):
            out.fail(p, "traced and untraced scripts differ")
        if not out.check_output(p, text, queries):
            return
        out.samples[p.name].append(dt)
        for _, name, start, end, parent, _ in tracer.spans[root:]:
            if parent == root:
                busy[name][p.name].append((end - start) / 1e9)
        busy["program"][p.name].append(
            (tracer.spans[root][3] - tracer.spans[root][2]) / 1e9)

    round_robin(out, seconds, step)
    check_interpreters(out, seed)
    ok = out.ok()
    solver_s = None if solver_cfg is None else \
        solve_seconds(ok, solver_cfg, seconds)
    return out, tracer, per_layer(ok, busy, out.samples, counts, solver_s)


def solve_seconds(programs, cfg, budget):
    """Solver wall time over the programs, in order, until `budget`
    seconds are spent; the solve cost stays out of the end-to-end run."""
    spent = 0.0
    for p in programs:
        if spent >= budget:
            break
        *_, ab, enc = build_pipeline(p.source, p.entry)
        emit_queries(ab, enc)
        t0 = time.perf_counter()
        run_solver(enc.script, cfg)
        spent += time.perf_counter() - t0
    return spent


def per_layer(ok, busy, untraced, counts, solver_s):
    """Per-layer metrics: fastest repetition, summed over programs."""
    def total_ms(samples):
        return 1000.0 * sum(min(samples[p.name]) for p in ok)

    metrics = {}
    for layer in LAYERS:
        name = "encoder.render_ms" if layer == "encoder.render" \
            else f"{layer}.busy_ms"
        metrics[name] = (total_ms(busy[layer]), "ms")
    for key in counts[ok[0].name] if ok else ():
        if key != "invariants.trivial":
            unit = "bytes" if key.endswith("_bytes") else "count"
            metrics[key] = (sum(counts[p.name][key] for p in ok), unit)
    pairs = metrics.get("invariants.pairs", (0,))[0]
    trivial = sum(counts[p.name]["invariants.trivial"] for p in ok)
    metrics["invariants.trivial_share"] = \
        (trivial / pairs if pairs else 0.0, "share")
    metrics["trace.overhead_ms"] = \
        (total_ms(busy["program"]) - total_ms(untraced), "ms")
    metrics["solver.busy_ms"] = \
        (None if solver_s is None else solver_s * 1000.0, "ms")
    return metrics
