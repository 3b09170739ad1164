"""The slice that `encoder.encode_program` encodes, checked against the
reference encoding of the whole abstracted program (`Encoder(...)`),
without a solver.

The two scripts differ only in the numbers of their symbols, which one
global counter hands out, and in the base-address constants of
variables or functions whose address only dropped statements take.
Candidates and their verdicts are the same."""

import json
import re
import sys

import pytest

from invarc import normalize as N
from invarc.cli import build_pipeline, main
from invarc.encoder import ADDR, INT, MEM, ZERO, Encoder, MemoryLayout, \
    Term, _Slice, definition, leaves
from invarc.invariants import detect_invariants

from conftest import ENTRIES, ROOT, corpus_entry, corpus_source, \
    reference_encoding
from test_smt_digests import digest_programs

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import generate  # noqa: E402

PERFBENCH_PER_WORKLOAD = 10


def slice_programs():
    """(label, source, entry) of the corpus, the digest programs and the
    first programs of each benchmark workload."""
    for name in sorted(ENTRIES):
        yield name, corpus_source(name), corpus_entry(name)
    for gen, seed, src in digest_programs():
        yield f"{gen}-{seed}", src, "gen"
    for workload in ("branch_loop", "call_tree", "straight_line"):
        for p in generate(workload, 1)[:PERFBENCH_PER_WORKLOAD]:
            yield p.name, p.source, p.entry


_BASES = re.compile(r"\(declare-const (base|addr)\$|\(assert \(distinct "
                    r"(0 base|addr)\$")
_NUMBER = re.compile(r"@(\d+)")


def canonical(script):
    """`script` with its symbols renumbered in order of first appearance
    and without the base-address constants and their `distinct`."""
    numbers = {}

    def renumber(m):
        return f"@{numbers.setdefault(m.group(1), len(numbers))}"
    return "\n".join(_NUMBER.sub(renumber, line)
                     for line in script.splitlines()
                     if not _BASES.match(line))


def verdicts(ab, enc):
    """The candidates and verdicts of `enc` without a solver; its script
    then holds the queries the CLI emits."""
    return [(c.variable, c.kind, c.loop_id, c.verdict)
            for c in detect_invariants(ab, enc, lambda: None).candidates]


def test_the_slice_encodes_what_the_whole_program_does():
    kept = whole = 0
    for label, src, entry in slice_programs():
        *_, ab, enc = build_pipeline(src, entry)
        ref = reference_encoding(ab)
        kept, whole = kept + len(enc.points), whole + len(ref.points)
        assert verdicts(ab, enc) == verdicts(ab, ref), label
        assert canonical(enc.script.render()) == \
            canonical(ref.script.render()), label
    assert kept < 0.9 * whole


def test_exit_env_holds_only_what_the_slice_keeps_exact():
    src = ("int g;\n"
           "int f(int a) { int unread = a * 2; g = a + 1; return unread; }")
    *_, enc = build_pipeline(src, "f")
    assert set(enc.exit_env) >= {"a", "g"}
    for dropped in ("$result", "unread"):
        with pytest.raises(KeyError):
            enc.exit_env[dropped]
    assert "unread" in enc.entry_env


def json_report(capsys, tmp_path, src):
    path = tmp_path / "probe.c"
    path.write_text(src)
    assert main([str(path), "--solver", "none", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    return {(c["variable"], tuple(c["points"])): c["verdict"]
            for c in report["candidates"]}


def test_a_store_through_a_pointer_is_in_the_slice(capsys, tmp_path):
    """`g` changes only through `*p`: the store writes memory, which is
    relevant because `g` is, and `g` must not look invariant."""
    src = "int g; int f(int x) { int *p = &g; *p = x; return 0; }"
    verdict = json_report(capsys, tmp_path, src)
    assert verdict[("g", ("function-entry", "function-exit"))] == "unknown"


def test_memory_layout_comes_from_the_whole_program():
    """The only `&x` sits in a statement the slice drops (nothing reads
    `p`); `x` still lives in memory, so the store through `q` in the
    loop may change it, and its loop candidate is not invariant."""
    src = ("int f(int *q, int n) {\n"
           "  int x = 0; int *p = &x; int i = 0;\n"
           "  while (i < n) { *q = i; i = i + 1; }\n"
           "  return 0; }\n")
    *_, ab, enc = build_pipeline(src, "f")
    (addr,) = [s for s in ab.program.walk() if getattr(s, "op", "") == "addr"]
    assert all(s is not addr for s in enc.points)
    (lr,) = enc.loops
    assert lr.head["x"] != lr.pre["x"]
    assert verdicts(ab, enc) == verdicts(ab, reference_encoding(ab))


STORES_THROUGH_ADDRESS_TAKEN_POINTERS = {
    "p": "int g;\n"
         "int f(int *p, int n) { int *q = &g; int **pp = &p; p[0] = n;"
         " return 0; }",
    "gp": "int g; int *gp;\n"
          "int f(int n) { int *q = &g; int **pp = &gp; gp[0] = n;"
          " return 0; }",
}


def subterms(t):
    yield t
    for a in t.args:
        yield from subterms(a)


@pytest.mark.parametrize("ptr", sorted(STORES_THROUGH_ADDRESS_TAKEN_POINTERS))
def test_a_store_through_an_address_taken_pointer_goes_where_it_points(ptr):
    """`p[0] = n` stores where `p` points, which may be `g`, not into the
    cell that holds `p` itself.  `p` lives in memory and has no symbol of
    its own, so the address is unconstrained.  (An `--oracle` run passes
    NULL for `p` and traps, so the check is on the encoding.)"""
    src = STORES_THROUGH_ADDRESS_TAKEN_POINTERS[ptr]
    *_, ab, enc = build_pipeline(src, "f")
    n = enc.entry_env["n"]
    values = dict(definition(t)[::2] for t in enc.script.main if t.args)
    addresses = [values.get(t.args[1], t.args[1])
                 for d in enc.script.main for t in subterms(d)
                 if t.op == "store" and t.args[2] == n]
    own_cell = Term("mk-addr", (Term(f"base${ptr}", (), INT), ZERO), ADDR)
    # the encoder's own term for it: the whole program's encoding keeps
    # the dead `pp = &ptr`, whose value is that cell
    assert own_cell in [t for d in reference_encoding(ab).script.main
                        for t in subterms(d)]
    assert addresses
    assert own_cell not in addresses


class ReadChecker(Encoder):
    """An encoder of the slice of an abstracted program that checks, for
    each kept simple statement, that every symbol from before it which
    its encoding reads is the current symbol of a name in the slicer's
    reads of it.  An address-taken scalar counts as MEM, and a statement
    that writes memory also reads the memory before it.  Every variable
    is declared, so the encoder reads at least what it reads in the
    slice's own encoding."""

    def __init__(self, ab):
        layout = MemoryLayout(ab.program)
        self.slice = _Slice(ab.program, layout)
        super().__init__(self.slice.program, ab.havocked, layout)
        self.unread = []    # (statement text, symbol) per stray read
        self.checked = 0

    def encode_stmt(self, s):
        if isinstance(s, (N.NIf, N.NWhile)):
            return super().encode_stmt(s)
        names = set(self.slice._reads(s))
        if MEM in self.layout.writes(s):
            names.add(MEM)
        memory = {MEM, *self.at_scalars}
        if names & memory:
            names |= memory
        allowed = {self.env[v].op for v in names if v in self.env}
        main = self.script.main
        n = len(main)
        super().encode_stmt(s)
        new = main[n:]
        fresh = {t.op for t in new if not t.args}
        read = {x for t in new for x in leaves(t) if "@" in x}
        self.unread += [(N.stmt_text(s), x)
                        for x in sorted(read - fresh - allowed)]
        self.checked += 1


# every address op and memory read: `a` and `s` live in memory, `b` and
# `u` have symbols of their own, `p`, `q`, `ps` and `px` are pointers
ACCESSES = """struct S { int f; int g; };
int g;
int f(int *p, int n, int i) {
  struct S s; struct S t; struct S u; struct S *ps = &t;
  int a[4]; int b[4]; int *q = a; int x = n; int *px = &x; int *pg = &g;
  int r = 0;
  s.f = n; t.g = n + 1; u = t;
  a[i] = n; b[1] = n;
  r = p[i] + a[i] + b[i] + q[1];
  r = r + s.f + ps->g + u.g + *px + *p;
  ps->f = r; p[1] = r; *p = x;
  g = r + x;
  return r;
}
"""


def test_the_slicer_reads_every_symbol_the_encoder_reads():
    checked = 0
    for label, src, entry in [*slice_programs(), ("accesses", ACCESSES, "f")]:
        *_, ab, _ = build_pipeline(src, entry)
        enc = ReadChecker(ab)
        enc.encode_program()
        assert enc.unread == [], label
        checked += enc.checked
    assert checked > 1000
