"""Byte-identity guard for the lexer and the parser.

`golden/frontend_digests.json` holds, for the corpus, the programs the
SMT digests pin and a probe of layout corner cases (block comments
across lines, tabs, CRLF line ends, a trailing `//` comment), the sha256
of the token stream as `(kind, text, span)` and of the parsed AST with
every field, spans included.  It also holds `(class, message, span)` of
the error each malformed input in `MALFORMED` raises.  A change to the
frontend that should not change its output must keep every entry.  To
record a deliberate change, run
`PYTHONPATH=src python tests/test_frontend_digests.py` from the
repository root and commit the new file with the change."""

import hashlib
import json
from fractions import Fraction

from invarc._records import fields
from invarc.diagnostics import InvarcError, Span
from invarc.frontend.ast import CType
from invarc.frontend.lexer import REJECTED_KEYWORDS, lex
from invarc.frontend.parser import MAX_NESTING, MAX_OPERATORS, Parser

from conftest import CORPUS, GOLDEN
from test_smt_digests import digest_programs

DIGESTS = GOLDEN / "frontend_digests.json"

PROBE = (
    "/* a block comment\n   across lines */ struct P { int x; double y;"
    " struct P *next; int a[4]; };\r\n"
    "int g;\tint (*fp)(int, int);\r\n"
    "long h(const int *p, int q[]) {\treturn p[0] + q[1]; }\n"
    "int add(int a, int b) { return a + b; }\n"
    "int f(int a, int b) {\r\n"
    "\tstruct P s; int k[3] = {1, 2, 3};\n"
    "\tdouble d = 1.25; /* one line */ int *p = &a; long z = 0;\n"
    "\tfp = &add; /* two\r\n\tlines */ d = d * 0.5;\n"
    "\tfor (int i = 0; i < 3; i++) { a += k[i] * 2 % 3; b -= -a / 2; }\n"
    "\twhile (a != b && !(a <= 0 || b >= 1)) { a--; ++b; }\n"
    "\tif (p == NULL) { s.x = a; } else { s.next->x = fp(a, b) - +b; }\n"
    "\t*p = a > b; b *= 2; b /= 3; b %= 4; add(a, b);\n"
    "\treturn a < b == 1;\n"
    "}  // a trailing comment")


def in_body(stmt):
    return f"int f(int a, int *p) {{\n  a = 1; {stmt}\n  return a;\n}}\n"


def _chain(op, operators):
    return op.join(["a"] * (operators + 1))


def _mixed(operators):
    """`a*a+a*a...` with `operators` binary operators."""
    return "+".join(["a*a"] * ((operators + 1) // 2)) + \
        ("+a" if operators % 2 == 0 else "")


MALFORMED = {
    **{f"keyword {kw}": in_body(f"{kw} x;") for kw in REJECTED_KEYWORDS},
    "varargs": "int f(int a,\n  ...) { return a; }",
    "hash": in_body("#define X 1"),
    "string": in_body('a = "s";'),
    "char literal": in_body("a = 'c';"),
    "unterminated comment": in_body("a = 2; /* no end"),
    "stray character": in_body("a = a @ 2;"),
    "numeric letter": in_body("a = ½;"),
    "end of input": "int f(int a) { return a +",
    "missing identifier": "int f(int a) { int = 3; }",
    "missing type": "struct S { x; };",
    "not an lvalue": in_body("a + 1 = 2;"),
    "array length": "int g[0];",
    "array length not a literal": "int g[a];",
    "expected token": in_body("if a) a = 2;"),
    **{f"nesting {name}": in_body(stmt) for name, stmt in {
        "parens": "return " + "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
                  + ";",
        "unary": "a = " + "- " * MAX_NESTING + "a;",
        "index": "a = " + "p[" * MAX_NESTING + "0" + "]" * MAX_NESTING + ";",
        "blocks": "{" * MAX_NESTING + "a = 1;" + "}" * MAX_NESTING,
        "ifs": "if (a) " * MAX_NESTING + "a = 1;",
    }.items()},
    **{f"operators {op}": in_body(f"a = {_chain(op, MAX_OPERATORS + 1)};")
       for op in ("+", "*", "||", "<")},
    "operators mixed": in_body(f"a = {_mixed(MAX_OPERATORS + 1)};"),
    "operators arrows": "struct N { int v; struct N *next; };\n"
                        "int f(struct N *p) { return p"
                        + "->next" * MAX_OPERATORS + "->v; }",
    "operators global": f"int a = {_chain('-', MAX_OPERATORS + 1)};",
}


def sources():
    """(name, source) of every program whose tokens and AST are pinned."""
    for path in sorted(CORPUS.glob("*.c")):
        yield f"corpus/{path.name}", path.read_text()
    for name, seed, src in digest_programs():
        yield f"{name}/{seed}", src
    yield "probe", PROBE


def _span(span):
    return [span.line, span.col, span.end_line, span.end_col]


def dump(node):
    """Every field of a parsed AST as plain JSON values."""
    if isinstance(node, (list, tuple)):
        return [dump(x) for x in node]
    if isinstance(node, Span):
        return _span(node)
    if isinstance(node, (CType, Fraction)):
        return repr(node)
    try:
        record_fields = fields(node)
    except TypeError:       # a plain value
        return node
    return {"": type(node).__name__,
            **{f.name: dump(getattr(node, f.name)) for f in record_fields}}


def _sha(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def digests():
    out = {"tokens": {}, "ast": {}, "errors": {}}
    for name, src in sources():
        tokens = lex(src)
        out["tokens"][name] = _sha([(t.kind, t.text, _span(t.span))
                                    for t in tokens])
        out["ast"][name] = _sha(dump(Parser(tokens).parse_unit()))
    for name, src in MALFORMED.items():
        try:
            Parser(lex(src)).parse_unit()
        except InvarcError as e:
            out["errors"][name] = [type(e).__name__, e.message,
                                   _span(e.span)]
        else:
            out["errors"][name] = None
    return out


def test_frontend_output_matches_its_digests():
    assert digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
