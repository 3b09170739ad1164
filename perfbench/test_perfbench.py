"""Tests of the benchmark itself: generators, output checks, traced run.

Run with ``python3 -m pytest perfbench``.
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
from checks import interpreters_disagree, probe_solver, script_problems
from invarc.solver import SolverConfig
from workloads import WORKLOADS, Program, generate

HERE = Path(__file__).resolve().parent
SMALL = 9   # programs per workload in these tests, spread over all sizes


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic(workload):
    a = generate(workload, 7, count=SMALL)
    assert a == generate(workload, 7, count=SMALL)
    assert [p.source for p in a] != \
        [p.source for p in generate(workload, 8, count=SMALL)]
    sizes = sorted(p.size for p in a)
    _, lo, hi = WORKLOADS[workload]
    assert lo <= sizes[0] and sizes[-1] <= hi
    assert sizes[-1] >= 4 * sizes[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_program_passes_the_output_checks(workload):
    programs = generate(workload, 3, count=SMALL)
    out = measure.measure_untraced(programs, 0, 3, HERE.parent / "src")
    assert out.failures == {}
    assert out.passes == 1
    metrics = measure.end_to_end(out)
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(workload):
    programs = generate(workload, 3, count=SMALL)
    out, tracer, metrics = measure.measure_traced(programs, 0, 3)
    assert out.failures == {}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names <= set(metrics)
    assert metrics["solver.busy_ms"] == (None, "ms")
    roots = [s for s in tracer.spans if s[1] == "program"]
    assert len(roots) == len(programs)
    assert {s[5] for s in roots} == {p.name for p in programs}


def test_pollution_only_on_call_tree():
    polluted = {}
    for workload in WORKLOADS:
        programs = generate(workload, 5, count=4)
        _, _, metrics = measure.measure_traced(programs, 0, 5)
        polluted[workload] = metrics["pollution.polluted_vars"][0]
    assert polluted["call_tree"] > 0
    assert polluted["branch_loop"] == polluted["straight_line"] == 0


def _script():
    program = generate("branch_loop", 1, count=1)[0]
    text, queries = measure.pre_solve(program)
    assert queries > 0
    return text


def test_structural_check_accepts_a_rendered_script():
    assert script_problems(_script()) == []


def _first(pattern, text):
    return re.search(pattern, text, re.M).group(0)


@pytest.mark.parametrize("corrupt", [
    # a query without its check-sat
    lambda t: t.replace("(check-sat)\n", "", 1),
    # a check-sat outside any query
    lambda t: t + "(check-sat)\n",
    # a missing closing parenthesis
    lambda t: t.replace(")\n", "\n", 1),
    # a versioned symbol used but never declared
    lambda t: t.replace(_first(r"^\(declare-const \S*@.*\n", t), "", 1),
    # a versioned symbol declared twice
    lambda t: t + _first(r"^\(declare-const \S*@.*\n", t),
])
def test_structural_check_rejects_a_corrupted_script(corrupt):
    assert script_problems(corrupt(_script())) != []


def test_interpreter_check_catches_a_disagreement():
    # the normalizer copies a member before taking its address (a flagged
    # construct), so the two interpreters disagree on this program
    source = "\n".join([
        "struct Rec { int f0; int f1; };",
        "int main(int a) {",
        "  struct Rec s;",
        "  s.f0 = a;",
        "  int *m = &s.f0;",
        "  *m = *m + 5;",
        "  return s.f0;",
        "}"])
    program = Program("member-address", "main", source, 1, True)
    assert interpreters_disagree(program, random.Random(0)) is not None


@pytest.mark.parametrize("executable", ["false", "no-such-solver-binary"])
def test_solver_busy_is_null_when_the_probe_fails(tmp_path, executable):
    cfg = SolverConfig(executable=executable, timeout_ms=5_000,
                       workdir=str(tmp_path))
    assert probe_solver(tmp_path, cfg) is None
    programs = generate("straight_line", 2, count=2)
    _, _, metrics = measure.measure_traced(programs, 0, 2, solver_cfg=None)
    assert metrics["solver.busy_ms"][0] is None


def test_run_fails_without_the_analyzer(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branch_loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
