"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload branch_loop --seed 1 --seconds 38 --trace 0

Run from anywhere; the analyzer is imported from ``src/`` of the checkout
that holds this file.  With ``--trace 0`` the run times the analyzer end to
end and prints the end-to-end metrics; with ``--trace 1`` it times every
layer inside spans, writes the spans under ``perfbench/traces/`` and
prints the per-layer metrics.  Either way the last line of standard
output is one JSON object with keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exits 2 without a result when the analyzer's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
TRACES = HERE / "traces"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fmt(value):
    return "null" if value is None else f"{value:.6g}"


def report(workload, args, out, metrics, extra):
    """Print the metrics table, then the result object as the last line."""
    attempted = len(out.programs)
    failed = len(out.failures)
    samples = sorted(len(v) for v in out.samples.values()) or [0]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"programs {attempted}  passes {out.passes}  samples per program "
          f"{samples[0]}..{samples[-1]}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<28} {_fmt(value):>14} {unit}")
    for name, msg in sorted(out.failures.items()):
        print(f"  FAILED {name}: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "invarc" / "__init__.py").is_file() \
            or not (TESTS / "genprog.py").is_file():
        sys.stderr.write(f"error: analyzer sources not found under {ROOT}\n")
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import measure
    from checks import probe_solver
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    programs = generate(args.workload, args.seed)
    if args.trace:
        TRACES.mkdir(exist_ok=True)
        solver_cfg = probe_solver(TRACES)
        out, tracer, metrics = measure.measure_traced(
            programs, args.seconds, args.seed, solver_cfg)
        solver = metrics.pop("solver.busy_ms")
        path = TRACES / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "programs": [p.name for p in programs],
            "spans": tracer.to_json(),
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "solver.busy_ms": solver[0],
        }))
        extra = {"solver.busy_ms": solver,
                 "programs failed": (len(out.failures), "count")}
    else:
        out = measure.measure_untraced(programs, args.seconds, args.seed, SRC)
        metrics = measure.end_to_end(out)
        extra = {"error_rate": (len(out.failures) / len(programs), "share")}
    report(args.workload, args, out, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
