"""The analysis up to the encoding, shared by the CLI, the library and
the test suite: parse, classify, normalize, pollute, abstract, encode."""

from __future__ import annotations

from .diagnostics import FrontendTypeError
from .frontend import parse_translation_unit
from .frontend.classify import classify_constructs
from .normalize import to_simple_assignments
from .pollution import analyze_pollution
from .abstraction import abstract_program
from .encoder import encode_program


def _pick_entry(ast, entry):
    if entry:
        if ast.function(entry) is None:
            raise FrontendTypeError(f"no function named {entry!r}")
        return entry
    if not ast.functions:
        raise FrontendTypeError("the input defines no function")
    if len(ast.functions) == 1:
        return ast.functions[0].name
    names = [f.name for f in ast.functions]
    if "main" in names:
        return "main"
    raise FrontendTypeError(
        f"multiple functions ({', '.join(names)}): use --entry")


def build_pipeline(source_text, entry=None):
    """Everything up to (and including) the encoding: (ast, report,
    prog, graph, abstracted, encoding)."""
    ast = parse_translation_unit(source_text)
    report = classify_constructs(ast)
    entry = _pick_entry(ast, entry)
    prog = to_simple_assignments(ast, report, entry)
    graph, per_item, polluted = analyze_pollution(prog, report)
    ab = abstract_program(prog, polluted, graph)
    enc = encode_program(ab.program, ab.havocked)
    return ast, report, prog, graph, ab, enc
