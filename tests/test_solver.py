"""External-solver adapter tests: discovery, configuration, protocol."""

import shutil
import stat
import sys

import pytest

from invarc.diagnostics import ProtocolError, SolverNotFound
from invarc.encoder import INT, SolverScript
from invarc.solver import (
    ENV_VAR, SolverConfig, discover_solver, parse_output, run_solver,
)

from conftest import ROOT, make_executable

sys.path.insert(0, str(ROOT / "perfbench"))
from checks import probe_solver  # noqa: E402

NODE = shutil.which("node")

# A z3-solver stand-in for node: answers `unsat` to every query, which
# real Z3 would not do for a satisfiable one.
FAKE_Z3_SOLVER = """\
exports.init = async () => ({
  em: null,
  Z3: {
    mk_config: () => 0,
    mk_context: () => 0,
    eval_smtlib2_string: async (ctx, text) =>
      [...text.matchAll(/\\(echo "(QUERY:[^"]*)"\\)/g)]
        .map((m) => m[1] + "\\nunsat\\n").join(""),
  },
});
"""


def script_with(*queries):
    s = SolverScript()
    s.declare("x", INT)
    for name, text in queries:
        s.add_query(name, text)
    return s


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(executable="", args=())
    with pytest.raises(ValueError):
        SolverConfig(executable="z3", args=(), timeout_ms=0)


def test_discover_env_override(monkeypatch, tmp_path):
    fake = tmp_path / "fakesolver"
    fake.write_text("#!/bin/sh\nexit 0\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv(ENV_VAR, f"{fake} --alpha --beta")
    cfg = discover_solver()
    assert cfg.executable == str(fake)
    assert cfg.args == ("--alpha", "--beta")


def test_discover_env_missing_binary(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "/no/such/solver")
    with pytest.raises(SolverNotFound):
        discover_solver()


def test_parse_output_order_preserved():
    out = 'QUERY:a\nsat\nQUERY:b\nunsat\nQUERY:c\nunknown\n'
    assert parse_output(out, ["a", "b", "c"]) == {
        "a": "sat", "b": "unsat", "c": "unknown"}


def test_parse_output_quoted_markers():
    out = '"QUERY:q1"\nunsat\n'
    assert parse_output(out, ["q1"]) == {"q1": "unsat"}


def test_parse_output_missing_answer():
    out = 'QUERY:a\nsat\nQUERY:b\n'
    verdicts = parse_output(out, ["a", "b"])
    assert verdicts["a"] == "sat"
    assert verdicts["b"] == "error"


def test_run_solver_end_to_end(solver_cfg):
    s = script_with(("taut", "(not (= x x))"),
                    ("contingent", "(= x 4)"))
    out = run_solver(s, solver_cfg)
    assert out == {"taut": "unsat", "contingent": "sat"}


def test_run_solver_no_queries(no_solver):
    assert run_solver(script_with(), no_solver) == {}


def test_run_solver_timeout(tmp_path):
    slow = tmp_path / "slow"
    slow.write_text("#!/bin/sh\nsleep 30\n")
    slow.chmod(slow.stat().st_mode | stat.S_IEXEC)
    cfg = SolverConfig(executable=str(slow), args=(), timeout_ms=300)
    out = run_solver(script_with(("q", "(= x 1)")), cfg)
    assert out == {"q": "timeout"}


def test_run_solver_crash_is_protocol_error(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("#!/bin/sh\necho garbage; exit 3\n")
    bad.chmod(bad.stat().st_mode | stat.S_IEXEC)
    cfg = SolverConfig(executable=str(bad), args=(), timeout_ms=5000)
    with pytest.raises(ProtocolError):
        run_solver(script_with(("q", "(= x 1)")), cfg)


def test_keep_artifacts(tmp_path):
    ok = tmp_path / "ok"
    ok.write_text('#!/bin/sh\necho "QUERY:q"\necho unsat\n')
    ok.chmod(ok.stat().st_mode | stat.S_IEXEC)
    cfg = SolverConfig(executable=str(ok), args=(), timeout_ms=5000,
                       workdir=str(tmp_path / "work"))
    run_solver(script_with(("q", "(not (= x x))")), cfg)
    kept = list((tmp_path / "work").glob("*.smt2"))
    assert kept and "QUERY:q" in kept[0].read_text()


def test_the_benchmark_probe_asserts_its_text_as_written(tmp_path):
    """The benchmark's solver probe adds its query as SMT-LIB text; the
    script it sends asserts exactly that text."""
    ok = make_executable(tmp_path / "ok",
                         '#!/bin/sh\necho "QUERY:probe"\necho unsat\n')
    cfg = SolverConfig(executable=str(ok), workdir=str(tmp_path / "work"))
    assert probe_solver(tmp_path, cfg) is cfg
    sent = (tmp_path / "work" / "script.smt2").read_text().splitlines()
    assert sent[-5:] == ["(push 1)", '(echo "QUERY:probe")',
                         "(assert (not (= 1 1)))", "(check-sat)", "(pop 1)"]


def make_package(directory, index_js=""):
    pkg = directory / "z3-solver"
    pkg.mkdir(parents=True)
    (pkg / "package.json").write_text('{"main": "index.js"}')
    (pkg / "index.js").write_text(index_js)
    return pkg


def test_bundled_wrapper_discovered_without_env(node_only):
    with pytest.raises(SolverNotFound, match="z3-solver"):
        discover_solver()
    pkg = make_package(node_only.node_path)
    cfg = discover_solver()
    assert cfg.executable == str(node_only.node)
    assert cfg.args == (str(node_only.wrapper), str(pkg))


@pytest.mark.parametrize("where", ["ancestor", "home", "prefix", "global"])
def test_z3_solver_package_outside_node_path(node_only, where):
    pkg = make_package({
        "ancestor": node_only.wrapper.parent.parent.parent / "node_modules",
        "home": node_only.home / ".node_modules",
        "prefix": node_only.bin.parent / "lib" / "node_modules",
        "global": node_only.npm_global,
    }[where])
    assert discover_solver().args == (str(node_only.wrapper), str(pkg))


@pytest.mark.skipif(NODE is None, reason="needs a node executable")
def test_bundled_wrapper_loads_discovered_package(node_only):
    node_only.node.unlink()
    node_only.node.symlink_to(NODE)
    # Where discovery looks but node's own `require` does not.
    make_package(node_only.bin.parent / "lib" / "node_modules",
                 FAKE_Z3_SOLVER)
    out = run_solver(script_with(("q", "(= x 1)")), discover_solver())
    assert out == {"q": "unsat"}
