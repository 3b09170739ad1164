"""Shared fixtures: corpus access, one solver discovery per session, and
a cached full-pipeline run per corpus program.

Tests that run the solver, themselves or through the CLI, request
`solver_cfg`.  Tests that check verdicts request `detect`, which runs
`detect_invariants` with the discovered solver, or, where there is none,
with in-process refutation only.  Where discovery finds no solver,
`solver_cfg` skips, and so does `detect` when refutation leaves a query
undecided, with `SolverNotFound`'s message (what is missing) as the
reason."""

import pathlib
import shutil
import stat
from types import SimpleNamespace

import pytest

from invarc.cli import build_pipeline
from invarc.diagnostics import SolverNotFound
from invarc.encoder import Encoder, nonzero
from invarc.invariants import detect_invariants, emit_query, \
    enumerate_candidates
from invarc import solver
from invarc.solver import ENV_VAR, SolverConfig, discover_solver

CORPUS = pathlib.Path(__file__).parent / "corpus"
GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).parent.parent
DOCS = ROOT / "docs"

# entry function per corpus file (files with several functions)
ENTRIES = {
    "foo.c": "foo",
    "sequential_scan.c": "SequentialScan",
    "sum.c": "sum_example",
    "fp_known.c": "dispatch",
    "fp_unknown.c": "dispatch_unknown",
    "get_row_length.c": "GetRowLength",
    "nested_member.c": "nested",
    "recursive.c": "use_fact",
    "pair.c": "swap_free",
}


def corpus_source(name):
    return (CORPUS / name).read_text()


def corpus_entry(name):
    return ENTRIES.get(name)


def reference_encoding(ab):
    """The encoding of the whole abstracted program `ab`: every statement,
    every variable.  `encode_program` encodes only the slice that the
    candidates read, and its `exit_env` has no `$result`."""
    return Encoder(ab.program, ab.havocked).encode_program()


def with_queries(source, entry, result_query=False):
    """The script of a program with one query block per candidate pair,
    named as the CLI names them; with `result_query`, one more query
    reads the exit symbol of `$result`, in the reference encoding."""
    *_, ab, enc = build_pipeline(source, entry)
    if result_query:
        enc = reference_encoding(ab)
    for i, c in enumerate(enumerate_candidates(ab, enc)):
        emit_query(c, enc.script, f"q{i}${c.variable}${c.kind}")
    if result_query:
        enc.script.add_query("result", nonzero(enc.exit_env["$result"]))
    return enc.script


def make_executable(path, text):
    path.write_text(text)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


@pytest.fixture(scope="session")
def discovered():
    """(the discovered solver, None), or (None, why there is none)."""
    try:
        return discover_solver(timeout_ms=60_000), None
    except SolverNotFound as e:
        return None, e.message


@pytest.fixture(scope="session")
def solver_cfg(discovered):
    cfg, missing = discovered
    if cfg is None:
        pytest.skip(missing)
    return cfg


@pytest.fixture(scope="session")
def detect(discovered):
    """`detect_invariants` with the discovered solver; without one, the
    calling test is skipped if in-process refutation leaves a query."""
    cfg, missing = discovered

    def run(ab, enc, **kw):
        report = detect_invariants(ab, enc, lambda: cfg, **kw)
        if report.undecided:
            pytest.skip(missing)
        return report

    return run


@pytest.fixture
def no_solver(tmp_path):
    """A solver whose executable does not exist, for tests that must not
    call one: a solver call fails them with SolverNotFound."""
    return SolverConfig(executable=str(tmp_path / "no-such-solver"))


@pytest.fixture
def node_only(monkeypatch, tmp_path):
    """An environment in which `node` is the only program on PATH,
    NODE_PATH, HOME and the npm global folder are empty directories, and
    the bundled wrapper is a copy in `wrapper/invarc/data`, so that no
    z3-solver package resolves until a test makes one.  `node` is a stand-in that fails if
    it is ever started."""
    env = SimpleNamespace(bin=tmp_path / "bin", node_path=tmp_path / "npm",
                          home=tmp_path / "home", npm_global=tmp_path / "npm-g",
                          data=tmp_path / "wrapper" / "invarc" / "data")
    for d in vars(env).values():
        d.mkdir(parents=True)
    env.node = make_executable(
        env.bin / "node", "#!/bin/sh\necho 'node must not run' >&2\nexit 1\n")
    env.wrapper = env.data / solver._BUNDLED.name
    shutil.copy(solver._BUNDLED, env.wrapper)
    monkeypatch.setattr(solver, "_BUNDLED", env.wrapper)
    monkeypatch.setattr(solver, "_NPM_GLOBAL", env.npm_global)
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setenv("PATH", str(env.bin))
    monkeypatch.setenv("NODE_PATH", str(env.node_path))
    monkeypatch.setenv("HOME", str(env.home))
    return env


@pytest.fixture(scope="session")
def pipeline_cache():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_pipeline(corpus_source(name),
                                         corpus_entry(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def report_cache(pipeline_cache, detect):
    """Full invariant reports per corpus file (solver included)."""
    cache = {}

    def get(name):
        if name not in cache:
            ast, report, prog, graph, ab, enc = pipeline_cache(name)
            cache[name] = detect(ab, enc, program_name=prog.entry)
        return cache[name]

    return get
