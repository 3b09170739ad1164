"""External SMT solver process adapter.

Runs an SMT-LIB 2 script through a configurable solver executable and
maps each named query (marked by an `echo "QUERY:name"` line) to a
verdict in {unsat, sat, unknown, timeout, error}.  Discovery order: the
INVARC_SOLVER environment variable, a z3 or cvc5 binary on PATH, then
node with the z3-solver npm package (Z3 compiled to WebAssembly), run
through the bundled wrapper `data/z3_smt2.cjs`.  Discovery only looks at
files and starts no process.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from ._records import record
from .diagnostics import ProtocolError, SolverNotFound

ENV_VAR = "INVARC_SOLVER"
_BUNDLED = Path(__file__).parent / "data" / "z3_smt2.cjs"
_NODE_PACKAGE = "z3-solver"
_NPM_GLOBAL = Path("/usr/lib/node_modules")


@record
class SolverConfig:
    executable: str
    args: tuple = ()
    timeout_ms: int = 10_000
    workdir: str = None

    def __post_init__(self):
        if not self.executable:
            raise ValueError("executable must be non-empty")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")


def discover_solver(timeout_ms=10_000, workdir=None):
    executable, *args = _solver_command()
    return SolverConfig(executable=executable, args=tuple(args),
                        timeout_ms=timeout_ms, workdir=workdir)


def _solver_command():
    """The command line of the first solver found, in discovery order."""
    override = os.environ.get(ENV_VAR)
    if override:
        import shlex
        try:
            parts = shlex.split(override)
        except ValueError as e:     # an unclosed quote or a trailing `\`
            raise SolverNotFound(
                f"{ENV_VAR} is not a command line ({e}): {override!r}") \
                from None
        if not parts:
            raise SolverNotFound(f"{ENV_VAR} names no command: {override!r}")
        if not (shutil.which(parts[0]) or os.path.exists(parts[0])):
            raise SolverNotFound(
                f"{ENV_VAR} points to a missing executable: {parts[0]}")
        return parts
    z3 = shutil.which("z3")
    if z3:
        return [z3, "-smt2"]
    cvc5 = shutil.which("cvc5")
    if cvc5:
        return [cvc5, "--lang", "smt2"]
    node = shutil.which("node")
    if not node:
        raise SolverNotFound(
            f"no SMT solver found: set {ENV_VAR}, or install z3/cvc5, or "
            f"install node with the {_NODE_PACKAGE} npm package")
    package = _find_node_package(node)
    if not (package and _BUNDLED.exists()):
        searched = ", ".join(str(d) for d in _global_package_dirs(node))
        raise SolverNotFound(
            f"no SMT solver found: set {ENV_VAR}, or install z3/cvc5, or "
            f"install the {_NODE_PACKAGE} npm package for {node} "
            f"(searched the node_modules folders above {_BUNDLED.parent}, "
            f"{searched})")
    return [node, str(_BUNDLED), str(package)]


def _node_package_dirs(node):
    """Where the z3-solver package is looked for, in order: the
    `node_modules` folder of each directory above the bundled wrapper,
    as `require` in the wrapper would search, then
    `_global_package_dirs(node)`."""
    ancestors = [d / "node_modules" for d in _BUNDLED.parents
                 if d.name != "node_modules"]
    return list(dict.fromkeys(ancestors + _global_package_dirs(node)))


def _global_package_dirs(node):
    """Each NODE_PATH entry, ~/.node_modules, ~/.node_libraries, and
    `lib/node` of the prefix whose `bin` holds `node`, where `require`
    looks after `node_modules` folders; then the npm global folders:
    `lib/node_modules` of that prefix and `_NPM_GLOBAL`."""
    dirs = [Path(d) for d in os.environ.get("NODE_PATH", "").split(
        os.pathsep) if d]
    home = Path(os.path.expanduser("~"))
    prefix = Path(node).parent.parent
    return list(dict.fromkeys(dirs + [
        home / ".node_modules", home / ".node_libraries",
        prefix / "lib" / "node", prefix / "lib" / "node_modules",
        _NPM_GLOBAL]))


def _find_node_package(node):
    """The first z3-solver package directory (one holding a
    `package.json`) in `_node_package_dirs(node)`, or None.  The bundled
    wrapper is handed this directory and loads exactly it."""
    for d in _node_package_dirs(node):
        if (d / _NODE_PACKAGE / "package.json").is_file():
            return d / _NODE_PACKAGE
    return None


def parse_output(text, query_names):
    """Map query names to verdicts from the solver's standard output."""
    verdicts = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip().strip('"')
        if line.startswith("QUERY:"):
            name = line[len("QUERY:"):]
            if current is not None and current not in verdicts:
                verdicts[current] = "error"
            current = name
        elif line in ("sat", "unsat", "unknown"):
            if current is not None and current not in verdicts:
                verdicts[current] = line
    if current is not None and current not in verdicts:
        verdicts[current] = "error"
    return {name: verdicts.get(name) for name in query_names}


def run_solver(script, cfg):
    """Run every named query of `script`; returns {name: verdict}."""
    # imported here: a run that starts no solver (`--solver none`, no
    # query, or no solver found) does not load them
    import subprocess
    import tempfile
    names = [q[0] for q in script.queries]
    if not names:
        return {}
    if not (shutil.which(cfg.executable) or os.path.exists(cfg.executable)):
        raise SolverNotFound(f"solver executable not found: {cfg.executable}")
    workdir = cfg.workdir or tempfile.mkdtemp(prefix="invarc-")
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "script.smt2")
    with open(path, "w") as f:
        f.write(script.render())
    cmd = [cfg.executable, *cfg.args, path]
    timed_out = False
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True,
            timeout=cfg.timeout_ms / 1000.0)
        stdout, stderr, rc = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        timed_out = True
        stdout = e.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode("utf-8", "replace")
        stderr, rc = "", -1
    finally:
        if cfg.workdir is None:
            try:
                os.unlink(path)
                os.rmdir(workdir)
            except OSError:
                pass
    parsed = parse_output(stdout, names)
    out = {}
    for name in names:
        v = parsed.get(name)
        if v is None:
            v = "timeout" if timed_out else "error"
        out[name] = v
    if not timed_out and rc != 0 and all(v == "error" for v in out.values()) \
            and "QUERY:" not in stdout:
        raise ProtocolError(
            f"solver produced no parseable output (exit {rc}): "
            f"{(stderr or stdout)[:500]}")
    return out
