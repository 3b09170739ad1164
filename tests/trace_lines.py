"""The lines of `src/invarc` that no tier-1 test executes.

It runs the tier-1 suite in this process under a `sys.settrace` line
trace (no coverage package needed) and prints, for each module of
`src/invarc`, every executable line that no test reached, as
`PATH:LINE: TEXT`, then a count.  A line is executable when the
compiled code of its module holds an instruction on it.  What a test
runs in a subprocess (`python -m invarc`) is not traced.  Arguments
go to pytest, after the tier-1 defaults:

    PYTHONPATH=src python tests/trace_lines.py
    PYTHONPATH=src python tests/trace_lines.py tests/test_cli.py

It is not a test (pytest does not collect it).  Tracing makes the suite
several times slower.
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "invarc"


def executable_lines(path):
    """The line numbers of `path` that hold an instruction of its code."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def trace(argv):
    """Run pytest with `argv` under the trace; the executed lines of each
    file under `SOURCE`, by path."""
    prefix = str(SOURCE)
    hit = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        # a function's `def` line runs as its call, with no line event
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
    return hit


def main(argv):
    hit = trace(argv or [str(ROOT / "tests")])
    total = 0
    for path in sorted(SOURCE.rglob("*.py")):
        text = path.read_text().splitlines()
        unrun = sorted(executable_lines(path) - hit.get(str(path), set()))
        total += len(unrun)
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{text[line - 1].strip()}")
    print(f"{total} executable lines of {SOURCE.relative_to(ROOT)} "
          f"were not run")


if __name__ == "__main__":
    main(sys.argv[1:])
