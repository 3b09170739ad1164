"""Mutation fuzzing of the pipeline: whatever the source, `build_pipeline`
ends in an encoding or raises an `InvarcError`, which the CLI reports as
one line with a documented exit code, never anything else."""

from hypothesis import given, settings
from hypothesis import strategies as st

from invarc.cli import build_pipeline
from invarc.diagnostics import InvarcError
from invarc.frontend.lexer import lex

from conftest import CORPUS, corpus_entry
from genprog import branchy_c, fp_global_c, loopy_c, mutating_c, \
    straightline_c

SOURCES = [(p.read_text(), corpus_entry(p.name))
           for p in sorted(CORPUS.glob("*.c"))]
SOURCES += [(gen(seed), "gen") for gen in (straightline_c, branchy_c,
                                           mutating_c, loopy_c, fp_global_c)
            for seed in range(2)]
OPERATORS = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
             "&&", "||", "=", "&", "!", "->", "."]
TYPES = ["int", "long", "double", "void", "char"]


def tokens(source):
    return [t.text for t in lex(source) if t.kind != "eof"]


@st.composite
def mutants(draw):
    source, entry = draw(st.sampled_from(SOURCES))
    toks = tokens(source)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "duplicate", "operator",
                                     "type"]))
        pool = {"operator": OPERATORS, "type": TYPES}.get(kind)
        at = [i for i, t in enumerate(toks) if pool is None or t in pool]
        if not at:
            continue
        i = draw(st.sampled_from(at))
        if kind == "delete":
            del toks[i]
        elif kind == "duplicate":
            toks.insert(i, toks[i])
        else:        # swap an operator for another, or a type
            toks[i] = draw(st.sampled_from(pool))
    return " ".join(toks), entry


@settings(max_examples=400, deadline=None)
@given(mutants())
def test_mutants_end_in_a_report_or_an_invarc_error(mutant):
    source, entry = mutant
    try:
        build_pipeline(source, entry)
    except InvarcError:
        pass
