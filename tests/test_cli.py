"""Command-line interface tests (in-process via main())."""

import json
import os
import re
import subprocess
import sys
import tempfile

import pytest

from invarc import cli
from invarc.cli import main, parse_domain
from invarc.frontend.parser import MAX_NESTING, MAX_OPERATORS

from conftest import CORPUS, ROOT, make_executable

FOO = str(CORPUS / "foo.c")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_text_report(capsys, solver_cfg):
    code, out, err = run(capsys, str(CORPUS / "foo.c"), "--entry", "foo")
    assert code == 0
    assert "VARIABLE" in out and "invariant" in out


def test_json_report_valid(capsys):
    code, out, _ = run(capsys, str(CORPUS / "get_row_length.c"),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == 1
    assert data["program"] == "GetRowLength"


def test_entry_defaults_to_single_function(capsys, solver_cfg):
    code, out, _ = run(capsys, str(CORPUS / "sequential_scan.c"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["program"] == "SequentialScan"


def test_dump_stages(capsys, solver_cfg):
    code, out, _ = run(capsys, str(CORPUS / "foo.c"), "--entry", "foo",
                       "--dump", "graph", "--dump", "smt")
    assert code == 0
    assert " -> " in out
    assert "(set-logic ALL)" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "/no/such/file.c")
    assert code == 1 and "error" in err


def test_directory_input(capsys, tmp_path):
    code, out, err = run(capsys, str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"{tmp_path}: error: Is a directory\n"


def test_non_utf8_input(capsys, tmp_path):
    bad = tmp_path / "latin1.c"
    bad.write_bytes(b"int f(int a) { return a; } /* \xff */\n")
    code, out, err = run(capsys, str(bad))
    assert code == 1 and out == ""
    assert err == f"{bad}: error: not UTF-8 text: byte 0xff at offset 30\n"


def test_oracle_violation_exit_code(capsys, monkeypatch, tmp_path):
    # A report that wrongly claims `a` invariant must end in exit 4.
    src = tmp_path / "inc.c"
    src.write_text("int f(int a) { a = a + 1; return a; }\n")
    detect = cli.detect_invariants

    def overclaim(*args, **kw):
        report = detect(*args, **kw)
        for c in report.candidates:
            c.verdict = "invariant"
        return report

    monkeypatch.setattr(cli, "detect_invariants", overclaim)
    code, out, _ = run(capsys, str(src), "--solver", "none", "--oracle",
                       "--domain=-1..1")
    assert code == 4
    assert "oracle: a entry-exit: FAIL" in out and "ORACLE VIOLATION" in out
    monkeypatch.undo()
    code, out, _ = run(capsys, str(src), "--solver", "none", "--oracle",
                       "--domain=-1..1")
    assert code == 0 and "ORACLE VIOLATION" not in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int f( { return 0; }")
    code, _, err = run(capsys, str(bad))
    assert code == 2
    assert err.startswith(f"{bad}:1:8: error: expected type")
    assert len(err.splitlines()) == 1 and err.count("error:") == 1


def test_octal_literal_with_a_decimal_digit_exit_code(capsys, tmp_path):
    bad = tmp_path / "oct.c"
    bad.write_text("int f(int x) { return x + 09; }\n")
    code, out, err = run(capsys, str(bad))
    assert code == 2 and out == ""
    assert err == f"{bad}:1:27: error: invalid digit in octal literal '09'\n"


def test_unsupported_numeric_literal_exit_code(capsys, tmp_path):
    bad = tmp_path / "hex.c"
    bad.write_text("int f(int x) { return x + 0x10; }\n")
    code, out, err = run(capsys, str(bad))
    assert (code, out) == (2, "")
    assert err == f"{bad}:1:27: error: unsupported construct: numeric " \
                  f"literal '0x10'\n"


@pytest.mark.parametrize("stmt", ["a[inc()] += x;", "a[inc()]++;",
                                  "--a[inc()];"])
def test_read_back_of_a_call_holding_target_exit_code(capsys, tmp_path, stmt):
    bad = tmp_path / "twice.c"
    bad.write_text("int g; int a[4];\n"
                   "int inc() { g = g + 1; return 0; }\n"
                   f"int f(int x) {{ g = g - 2; {stmt} return 0; }}\n")
    code, out, err = run(capsys, str(bad), "--entry", "f", "--solver",
                         "none")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert re.fullmatch(rf"{re.escape(str(bad))}:3:\d+: error: unsupported "
                        r"construct: (\+=|\+\+|--) on a target that holds "
                        r"a call\n", err)


def test_deep_nesting_exit_code(capsys, tmp_path):
    deep = tmp_path / "deep.c"
    deep.write_text("int f(int a) { return " + "(" * 89 + "a" + ")" * 89
                    + "; }\n")
    code, _, err = run(capsys, str(deep))
    assert code == 2
    assert err == f"{deep}:1:86: error: nesting deeper than 64 levels\n"


CHAIN_PREFIX = "int f(int a) { return "


@pytest.mark.parametrize("operands", [400, 1000])
def test_long_operator_chain_exit_code(capsys, tmp_path, operands):
    src = tmp_path / "chain.c"
    src.write_text(CHAIN_PREFIX + "+".join(["a"] * operands) + "; }\n")
    code, out, err = run(capsys, str(src))
    col = len(CHAIN_PREFIX) + 2 * (MAX_OPERATORS + 1)
    assert code == 2 and out == ""
    assert err == (f"{src}:1:{col}: error: more than {MAX_OPERATORS} "
                   "operators in one statement\n")


def test_deepest_statement_runs_every_stage(capsys, tmp_path):
    # nesting and operators at their limits together: every stage the
    # CLI runs, the oracle's interpreter included, has stack enough
    chain = "+".join(["a"] * (MAX_OPERATORS + 1))
    unary = "- " * (MAX_NESTING - 3)
    src = tmp_path / "deep.c"
    src.write_text(f"int f(int a) {{ int x = 0; x = {unary}({chain});"
                   f" if ({unary}({chain})) {{ x = 1; }} return x; }}\n")
    dumps = [a for stage in cli.DUMP_STAGES for a in ("--dump", stage)]
    code, out, err = run(capsys, str(src), "--solver", "none", "--oracle",
                         *dumps)
    assert code == 0 and err == ""
    assert "oracle: 7 executions" in out


def test_oracle_marks_unchecked_candidates(capsys, tmp_path):
    # the interpreter's loop snapshots carry no value for a function
    # pointer, so its loop candidates are never checked
    src = tmp_path / "fploop.c"
    src.write_text("\n".join([
        "int inc(int x) { return x + 1; }",
        "int dec(int x) { return x - 1; }",
        "int f(int a, int n) {",
        "  int (*fp)(int) = inc;",
        "  if (a > 0) { fp = dec; }",
        "  int i = 0;",
        "  int s = 0;",
        "  while (i < n) { s = fp(a); i = i + 1; }",
        "  return s;",
        "}", ""]))
    code, out, _ = run(capsys, str(src), "--entry", "f", "--solver", "none",
                       "--oracle")
    assert code == 0
    assert "oracle: fp loop: unchecked (0 checks)" in out
    assert "oracle: fp head-bend: unchecked (0 checks)" in out
    assert "oracle: a head-bend: pass (21 checks)" in out
    assert "pass (0 checks)" not in out


def test_oracle_checks_loops_inlined_from_a_callee(capsys, tmp_path):
    # the snapshots in t's loop read f's frame; a loop inlined twice mixes
    # the events of both copies, so its candidates stay unchecked
    t = "int t(int n){int k=0; while(k<n){k=k+1;} return k;}"
    once = "int f(int a,int b){int q=a+1; int r=t(b); return q+r;}"
    twice = "int f(int a,int b){int q=t(a); int r=t(b); return q+r;}"
    src = tmp_path / "callee.c"
    src.write_text(t + " " + once + "\n")
    code, out, _ = run(capsys, str(src), "--entry", "f", "--solver", "none",
                       "--oracle")
    assert code == 0
    for v in "abqr":
        for kind in ("loop", "head-bend"):
            checks = re.search(rf"oracle: {v} {kind}: pass \((\d+) checks\)",
                               out)
            assert checks and int(checks.group(1)) > 0, (v, kind, out)
    src.write_text(t + " " + twice + "\n")
    code, out, _ = run(capsys, str(src), "--entry", "f", "--solver", "none",
                       "--oracle")
    assert code == 0
    assert "oracle: a loop: unchecked (0 checks)" in out
    assert "loop: pass" not in out and "head-bend: pass" not in out


# a solver stand-in: `unsat` for the queries of `g`'s head-bend candidate,
# `sat` for the others
GLOBAL_G_UNSAT = """\
import re, sys
for name in re.findall(r'QUERY:([^"]*)', open(sys.argv[-1]).read()):
    print("QUERY:" + name)
    print("unsat" if "$g$head-bend" in name else "sat")
"""


def test_oracle_reads_the_global_a_local_shadows(capsys, tmp_path):
    # the candidate `g` is the global, which the loop leaves alone; the
    # local `g` that shadows it in `f` grows, and it is not compared
    src = tmp_path / "shadow.c"
    src.write_text("int g; int h(int d) { g = g + 0; return d; }\n"
                   "int f(int n) { int g = 0; int i = 0;\n"
                   "  while (i < 2) { g = g + 1; i = h(i) + 1; }\n"
                   "  return n + g; }\n")
    solver = make_executable(tmp_path / "solver",
                             f"#!{sys.executable}\n{GLOBAL_G_UNSAT}")
    code, out, _ = run(capsys, str(src), "--entry", "f", "--oracle",
                       "--solver", str(solver))
    assert code == 0, out
    assert "oracle: g head-bend: pass (7 checks)" in out


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(source, entry=None):
        raise RuntimeError("stage failed")
    monkeypatch.setattr(cli, "build_pipeline", broken)
    code, out, err = run(capsys, FOO)
    assert code == 5 and out == ""
    assert err == f"{FOO}: internal error: RuntimeError: stage failed\n"


def test_rejected_construct_exit_code(capsys, tmp_path):
    bad = tmp_path / "sw.c"
    bad.write_text("int f(int x) { switch (x) { default: return 0; } }")
    code, _, err = run(capsys, str(bad))
    assert code == 2


@pytest.mark.parametrize("source", ["", "// no code\n", "int g;\n"])
def test_a_unit_without_a_function_exit_code(capsys, tmp_path, source):
    bad = tmp_path / "none.c"
    bad.write_text(source)
    code, out, err = run(capsys, str(bad), "--solver", "none")
    assert (code, out) == (2, "")
    assert err == f"{bad}: error: the input defines no function\n"


def test_unknown_entry(capsys):
    code, _, err = run(capsys, str(CORPUS / "foo.c"), "--entry", "nosuch")
    assert code == 2 and "error" in err


def test_solver_not_found(capsys, monkeypatch):
    monkeypatch.setenv("INVARC_SOLVER", "/no/such/solver")
    code, _, err = run(capsys, str(CORPUS / "foo.c"), "--entry", "foo")
    assert code == 3


@pytest.mark.parametrize("value,why", [
    (" ", "names no command"),
    ("'x", "is not a command line (No closing quotation)"),
])
def test_unusable_solver_variable_is_not_found(capsys, monkeypatch, value,
                                               why):
    monkeypatch.setenv("INVARC_SOLVER", value)
    code, out, err = run(capsys, FOO, "--entry", "foo")
    assert code == 3 and out == ""
    assert err == f"{FOO}: error: INVARC_SOLVER {why}: {value!r}\n"


def test_node_without_z3_solver_is_not_found(capsys, node_only):
    # Discovery rejects node when no z3-solver package resolves, so the
    # run stops with one line instead of a node require stack.
    code, _, err = run(capsys, FOO, "--entry", "foo")
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{FOO}: error: no SMT solver found")
    assert "z3-solver" in err and err.count("error:") == 1
    assert "node must not run" not in err


def test_smt_dump_is_printed_before_a_missing_solver_stops_the_run(
        capsys, node_only):
    code, out, err = run(capsys, FOO, "--entry", "foo", "--dump", "smt")
    assert code == 3
    assert "(check-sat)" in out and "VARIABLE" not in out
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{FOO}: error: no SMT solver found")


def test_discovered_solver_takes_cli_options(capsys, monkeypatch, tmp_path):
    slow = make_executable(tmp_path / "slow", "#!/bin/sh\nexec sleep 5\n")
    monkeypatch.setenv("INVARC_SOLVER", str(slow))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code, out, _ = run(capsys, FOO, "--entry", "foo", "--format", "json",
                       "--timeout-ms", "200")
    assert code == 0
    assert json.loads(out)["solver_time_ms"] < 2000
    assert not list(tmp_path.glob("invarc-*"))


def test_no_query_needs_no_solver(capsys, node_only):
    code, out, _ = run(capsys, str(CORPUS / "get_row_length.c"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["solver_time_ms"] == 0


def test_solver_none(capsys, node_only, tmp_path):
    # Every query of foo.c has a model that refutes it in-process; the
    # query of `a = a + 0` has none, and only a solver could prove it.
    code, out, _ = run(capsys, FOO, "--entry", "foo", "--solver", "none",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["diagnostics"] == []
    assert [(c["variable"], c["verdict"]) for c in data["candidates"]] == [
        ("i", "invariant"), ("i", "invariant"), ("i", "invariant"),
        ("cnt", "unknown"), ("cnt", "unknown")]
    src = tmp_path / "keep.c"
    src.write_text("int f(int a) { a = a + 0; return a; }\n")
    code, out, _ = run(capsys, str(src), "--solver", "none")
    assert code == 0
    assert "unknown" in out and "invariant" not in out
    assert "note: no solver: 1 of 1 queries were not refuted" in out


@pytest.mark.parametrize("argv", [("--timeout-ms", "0", "--solver", "true"),
                                  ("--timeout-ms", "-5")])
def test_nonpositive_timeout_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main([FOO, *argv])
    err = capsys.readouterr().err
    assert e.value.code == 1
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.endswith(f"error: argument --timeout-ms: must be positive, "
                        f"got {argv[1]}\n")


def test_domain_parsing():
    assert parse_domain("-3..3") == (-3, 3)
    assert parse_domain("0..10") == (0, 10)
    with pytest.raises(ValueError):
        parse_domain("3..-3")
    with pytest.raises(ValueError):
        parse_domain("abc")


def test_oracle_flag(capsys, solver_cfg):
    code, out, _ = run(capsys, str(CORPUS / "foo.c"), "--entry", "foo",
                       "--oracle", "--domain=-2..2")
    assert code == 0
    assert "oracle" in out.lower()


def test_multiple_inputs(capsys, solver_cfg):
    code, out, _ = run(capsys, str(CORPUS / "foo.c"),
                       str(CORPUS / "get_row_length.c"))
    assert code == 0
    assert out.count("VARIABLE") == 2


def test_every_input_is_analysed_and_the_largest_code_wins(capsys,
                                                          tmp_path):
    good = tmp_path / "good.c"
    good.write_text("int f(int a) { int b = a; return b; }\n")
    bad = tmp_path / "bad.c"
    bad.write_text("int f( { return 0; }\n")
    code, out, err = run(capsys, "--entry", "f", "--solver", "none",
                         str(good), str(bad), str(good))
    assert code == 2
    assert out.count("VARIABLE") == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"{bad}:1:8: ")
    for inputs in ([str(tmp_path / "none.c"), str(bad)],
                   [str(bad), str(tmp_path / "none.c")]):
        assert run(capsys, "--solver", "none", *inputs)[0] == 2


@pytest.mark.parametrize("module", ["invarc.cli", "invarc"])
def test_run_as_a_module(module):
    """`python -m` runs the CLI and writes nothing to stderr but errors."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", module, FOO, "--entry", "foo",
         "--solver", "none"], env=env, capture_output=True, text=True,
        timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert "VARIABLE" in done.stdout


def test_import_loads_no_cli():
    """Importing invarc loads neither the CLI nor `dataclasses`, nor the
    modules that only a solver run or a JSON report uses.  `-S` keeps
    the modules that the host's site packages import out of the
    check."""
    unused = ("argparse", "invarc.cli", "invarc.interp", "dataclasses",
              "inspect", "typing", "subprocess", "tempfile", "shlex", "json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, invarc; print(sorted(m for"
         f" m in {unused!r} if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]", done.stderr


def test_a_run_without_a_solver_loads_no_process_machinery():
    script = (
        "import sys\n"
        "from invarc.cli import main\n"
        f"code = main(['--solver', 'none', {str(CORPUS / 'sum.c')!r}])\n"
        "print(code, sorted(m for m in ('subprocess', 'tempfile')"
        " if m in sys.modules))\n")
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 []", done.stderr


# --- calls that inlining cannot eliminate, and calls through pointers ------

REC = """int g;
int rec(int n) {
  g = n;
  if (n <= 0) {
    return 0;
  }
  return rec(n - 1);
}
"""

# `f` calls the recursive `rec` directly, or through a pointer that may
# also point to `h`; either way `g` changes when `x < 0`
UNINLINED_CALLS = {
    "rec_glob2.c": REC + "int f(int x) { int r = rec(x); return r; }\n",
    "fp_rec.c": REC + """int h(int n) {
  return n + 1;
}
int f(int x) {
  int (*p)(int);
  p = &h;
  if (x < 0) {
    p = &rec;
  }
  int r = p(x);
  return r;
}
""",
}


def probe(capsys, tmp_path, name, source, *argv):
    """Run the CLI on `source`, entry `f`, without a solver and with the
    brute-force oracle over [-3, 3]."""
    path = tmp_path / name
    path.write_text(source)
    return run(capsys, str(path), "--entry", "f", "--solver", "none",
               "--oracle", "--domain=-3..3", *argv)


@pytest.mark.parametrize("name", sorted(UNINLINED_CALLS))
def test_uninlined_call_pollutes_the_globals_its_callee_writes(
        capsys, tmp_path, name):
    code, out, _ = probe(capsys, tmp_path, name, UNINLINED_CALLS[name])
    assert code == 0, out
    assert "excluded as polluted: g, r" in out
    assert not any(line.startswith("g ") for line in out.splitlines())


def test_call_through_a_pointer_to_itself_ends_in_a_report(capsys, tmp_path):
    src = """int t(int n) {
  int (*p)(int);
  p = &t;
  if (n <= 0) {
    return 0;
  }
  return p(n - 1);
}
int f(int x) {
  int r = t(x);
  return r;
}
"""
    code, out, err = probe(capsys, tmp_path, "fp_self.c", src)
    assert code == 0 and err == ""
    assert out.startswith("VARIABLE") and "excluded as polluted: r" in out


def test_pointer_targets_are_the_address_taken_functions(capsys, tmp_path):
    src = """int g(int a) {
  return a + 2;
}
int h(int a) {
  return a + 1;
}
int f(int b) {
  int c = g(b);
  int (*p)(int);
  p = &h;
  int r = p(b);
  return r + c;
}
"""
    code, out, _ = probe(capsys, tmp_path, "fp_direct.c", src,
                         "--dump", "normalized")
    assert code == 0
    lines = [line.strip() for line in out.splitlines()]
    arms = [line for line in lines if line.startswith("if (p == ")]
    assert len(arms) == 1
    addr = arms[0][len("if (p == "):-len(") {")]
    assert f"{addr} = &h;" in lines
    assert "$call3 = unmodelable p(b);" in lines
    assert not any(line.endswith("= &g;") for line in lines)


ARRAY_CALLEE = """int t(int *p, int n) {
  int i = 0;
  while (i < n) {
    i = i + 1;
  }
  p[0] = 5;
  return i;
}
"""

ARRAY_CALL = """int f(int a) {{
  int arr[2];
  arr[0] = a;
  arr[1] = 0;
  int (*q)(int *, int);
  q = &t;
  int r = {}(arr, 1);
  a = arr[0];
  return r;
}}
"""


@pytest.mark.parametrize("callee", ["q", "t"])
def test_array_written_through_a_parameter(capsys, tmp_path, callee):
    # `t` sets arr[0] = 5, so `a` changes unless it was 5: the refuter
    # finds a model for the entry-exit query of `a`
    code, out, _ = probe(capsys, tmp_path, "fp_arr.c",
                         ARRAY_CALLEE + ARRAY_CALL.format(callee),
                         "--format", "json")
    assert code == 0
    data = json.loads(out[:out.index("\noracle:")])
    assert data["diagnostics"] == []
    (a,) = [c for c in data["candidates"] if c["variable"] == "a"
            and c["loop"] is None]
    assert a["verdict"] == "unknown"
