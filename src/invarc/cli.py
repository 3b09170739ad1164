"""Command-line pipeline: parse, normalize, pollute, abstract, encode,
solve, report.

Exit codes: 0 analysis completed (regardless of verdicts), 1 usage
error or an input file that cannot be read as UTF-8 text, 2 parse/type
error in the input program, 3 solver infrastructure error, 4 `--oracle`
found a reported invariant that an execution breaks, 5 internal error:
a defect of invarc itself.  Every input is analysed, whatever became of
the ones before it, and the run exits with the largest code of any
input (5 > 4 > 3 > 2 > 1 > 0).  An error in the analysis of a file is
one line on stderr, `FILE:LINE:COL: error: MESSAGE`, without `LINE:COL`
where it has no position in the source; an internal error is `FILE:
internal error: TYPE: MESSAGE`, with no traceback.

The solver is looked for only when a program has a query for it, and
at most once per run: a later file reuses the solver found, or the
reason none was.  A program without queries is analysed, and
exits 0, on a machine with no solver; one with queries exits 3 there,
after printing every `--dump` it asks for.  `--solver none` runs no
solver: each query is only tried by in-process refutation, and a
candidate whose query it leaves is reported unknown, with a note.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from .diagnostics import InputError, InvarcError, ProtocolError, \
    SolverNotFound
from .frontend.ast import ast_text
from .normalize import program_text
from .invariants import detect_invariants, execute, input_count
from .pipeline import build_pipeline   # re-exported: invarc.cli.build_pipeline
from .solver import SolverConfig, discover_solver

DUMP_STAGES = ("ast", "normalized", "graph", "abstract", "smt")
MAX_ORACLE_RUNS = 4096
ORACLE_STEPS = 200_000     # the step budget of each oracle run


def _read_source(path):
    """The text of `path`; an unreadable file raises InputError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise InputError(e.strerror or str(e)) from e
    except UnicodeDecodeError as e:
        raise InputError(f"not UTF-8 text: byte 0x{e.object[e.start]:02x} "
                         f"at offset {e.start}") from e


def _analyze_one(args, path, solver):
    """Analyse one file for the parsed arguments `args` and write its
    report; True when `--oracle` found a violation.  `solver` returns the
    solver configuration, see `detect_invariants`."""
    out = sys.stdout
    source = _read_source(path)
    ast, report, prog, graph, ab, enc = build_pipeline(source, args.entry)
    if "ast" in args.dump:
        out.write(ast_text(ast))
    if "normalized" in args.dump:
        out.write(program_text(prog))
    if "graph" in args.dump:
        out.write(graph.dump())
    if "abstract" in args.dump:
        out.write(program_text(ab.program))

    @functools.cache
    def dump_smt():
        """Write the SMT dump, if asked for, once."""
        if "smt" in args.dump:
            out.write(enc.script.render())

    def solver_after_dump():
        """`solver()`, looked for only once the script, queries and
        all, is dumped: a missing solver still shows the dump."""
        dump_smt()
        return solver()

    report_obj = detect_invariants(ab, enc, solver_after_dump,
                                   program_name=prog.entry)
    dump_smt()
    if args.fmt == "json":
        out.write(report_obj.to_json() + "\n")
    else:
        out.write(report_obj.to_text())
    if args.oracle:
        oracle = check_oracle(ast, prog.entry, enc, report_obj, args.domain)
        for line in oracle["lines"]:
            out.write(line + "\n")
        if oracle["violations"]:
            out.write("ORACLE VIOLATION\n")
            return True
    return False


def check_oracle(ast, entry, enc, report_obj, domain):
    """Brute-force every scalar input vector and cross-check each
    reported invariant; returns lines plus the list of violations, each
    `(candidate index, variable, kind, input vector)`."""
    lo, hi = domain
    # the candidates of a loop without a span of its own stay unchecked
    loop_spans = enc.loop_spans()
    violations = []
    checked = {c: 0 for c in range(len(report_obj.candidates))}
    runs = 0
    vectors = itertools.product(range(lo, hi + 1),
                                repeat=input_count(ast.function(entry)))
    for vec in itertools.islice(vectors, MAX_ORACLE_RUNS):
        run = execute(ast, entry, vec, loop_spans, ORACLE_STEPS)
        if run is None:
            continue
        runs += 1
        for idx, c in enumerate(report_obj.candidates):
            if c.verdict != "invariant":
                continue
            ok = run.holds(c)
            if ok is None:
                continue
            checked[idx] += 1
            if not ok:
                violations.append((idx, c.variable, c.kind, vec))
    failed = {v[0] for v in violations}
    lines = [f"oracle: {runs} executions over [{lo}, {hi}]"]
    for idx, c in enumerate(report_obj.candidates):
        if c.verdict != "invariant":
            continue
        if not checked[idx]:
            status = "unchecked"     # no execution gave both values
        elif idx in failed:
            status = "FAIL"
        else:
            status = "pass"
        lines.append(f"oracle: {c.variable} {c.kind}: {status} "
                     f"({checked[idx]} checks)")
    return {"lines": lines, "violations": violations, "runs": runs}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def make_parser():
    p = _Parser(prog="invarc",
                description="variable-value invariant detection for a "
                            "C subset via SMT solving")
    p.add_argument("inputs", nargs="+", metavar="FILE.c")
    p.add_argument("--entry", metavar="NAME")
    p.add_argument("--solver", metavar="PATH",
                   help="solver executable, or 'none' to run no solver")
    p.add_argument("--timeout-ms", type=int, default=10_000)
    p.add_argument("--format", choices=("json", "text"), default="text",
                   dest="fmt")
    p.add_argument("--dump", action="append", choices=DUMP_STAGES,
                   default=[], metavar="STAGE")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--domain", default="-3..3", metavar="LO..HI")
    return p


def parse_domain(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"bad domain {text!r}, expected LO..HI")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"bad domain {text!r}: lower bound above upper")
    return lo, hi


def _exit_code(error):
    """The exit code of an InvarcError (see the module docstring)."""
    if isinstance(error, InputError):
        return 1
    return 3 if isinstance(error, (SolverNotFound, ProtocolError)) else 2


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.timeout_ms <= 0:
        parser.error(f"argument --timeout-ms: must be positive, got "
                     f"{args.timeout_ms}")
    try:
        args.domain = parse_domain(args.domain)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1

    @functools.cache
    def lookup():
        """The configured solver, or the SolverNotFound that discovering
        it raised; None with `--solver none`."""
        if args.solver == "none":
            return None
        if args.solver:
            return SolverConfig(executable=args.solver,
                                timeout_ms=args.timeout_ms)
        try:
            return discover_solver(timeout_ms=args.timeout_ms)
        except SolverNotFound as e:
            return e

    def solver():
        """The configured solver, looked for on first use; each file
        that asks for a missing one gets its own SolverNotFound."""
        found = lookup()
        if isinstance(found, SolverNotFound):
            raise found.with_traceback(None)
        return found

    code = 0
    for path in args.inputs:
        try:
            code = max(code, 4 if _analyze_one(args, path, solver) else 0)
        except InvarcError as e:
            sys.stderr.write(f"{e.render(path)}\n")
            code = max(code, _exit_code(e))
        except Exception as e:   # a defect: one line, not a traceback
            msg = " ".join(str(e).splitlines())
            sys.stderr.write(f"{path}: internal error: "
                             f"{type(e).__name__}: {msg}\n")
            code = 5
    return code


if __name__ == "__main__":
    sys.exit(main())
