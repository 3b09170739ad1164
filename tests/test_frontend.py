"""Frontend tests: parsing, type annotation, construct classification."""

import copy
import pickle
from fractions import Fraction

import pytest

from invarc.cli import main
from invarc.diagnostics import FrontendTypeError, ParseFailure, \
    RejectedConstruct, Span
from invarc.frontend import parse_translation_unit
from invarc.frontend.ast import ArrayType, Binary, DoubleType, \
    FuncPtrType, INT, IntType, ast_text
from invarc.frontend.classify import classify_constructs
from invarc.frontend.lexer import lex
from invarc.frontend.parser import MAX_NESTING, MAX_OPERATORS, Parser
from invarc.interp import run_source

from conftest import CORPUS, corpus_source


def test_struct_pair_fields():
    ast = parse_translation_unit("struct Pair { int x; double y; };")
    (sd,) = ast.struct_defs
    assert sd.name == "Pair"
    assert [m for m, _ in sd.members] == ["x", "y"]
    assert isinstance(sd.member_type("x"), IntType)
    assert isinstance(sd.member_type("y"), DoubleType)


def test_empty_file():
    ast = parse_translation_unit("")
    assert ast.struct_defs == [] and ast.globals == [] \
        and ast.functions == []


def test_const_without_a_type_is_a_parse_failure():
    # the lookahead for a declaration must not consume `const`, which
    # would turn the statement into `x = a;`
    with pytest.raises(ParseFailure, match="expected type, found 'x'"):
        parse_translation_unit(
            "int f(int a) { int x = 0; const x = a; return x; }")
    ast = parse_translation_unit(
        "int f(int a) { const int x = a; return x; }")
    assert "int x = a;" in ast_text(ast)


def test_syntax_error_position():
    with pytest.raises(ParseFailure) as e:
        parse_translation_unit("int f() { return g(; }")
    assert e.value.span is not None
    assert e.value.span.line == 1


def test_unresolved_identifier():
    with pytest.raises(FrontendTypeError):
        parse_translation_unit("int f() { return nosuch; }")


def test_bad_assignment_type():
    with pytest.raises(FrontendTypeError):
        parse_translation_unit(
            "struct S { int a; };\n"
            "int f() { struct S s; int x; x = s; return x; }")


@pytest.mark.parametrize("snippet,kind", [
    ("int f() { goto end; end: return 0; }", "goto"),
    ("int f(int x) { switch (x) { default: return 0; } }", "switch"),
    ("union U { int a; };", "union"),
    ("char f() { return 0; }", "char"),
    ("#include <stdio.h>\nint f() { return 0; }", "preprocessor"),
])
def test_rejected_constructs(snippet, kind):
    with pytest.raises(RejectedConstruct):
        parse_translation_unit(snippet)


def test_lexer_positions():
    toks = lex("a /* x\n yz */b\t..1.5 2.x // c")
    assert [(t.kind, t.text, t.span) for t in toks] == [
        ("ident", "a", Span(1, 1, 1, 2)), ("ident", "b", Span(2, 7, 2, 8)),
        ("punct", ".", Span(2, 9, 2, 10)), ("punct", ".", Span(2, 10, 2, 11)),
        ("float", "1.5", Span(2, 11, 2, 14)), ("int", "2", Span(2, 15, 2, 16)),
        ("punct", ".", Span(2, 16, 2, 17)), ("ident", "x", Span(2, 17, 2, 18)),
        # a line comment leaves the column where it began
        ("eof", "", Span(2, 19))]
    # blanks and line comments before a token, or before the end
    for text, tokens in (
            ("a\r\n  b\r\n", [("a", Span(1, 1, 1, 2)), ("b", Span(2, 3, 2, 4)),
                              ("", Span(3, 1))]),
            ("x // c\n  y", [("x", Span(1, 1, 1, 2)), ("y", Span(2, 3, 2, 4)),
                             ("", Span(2, 4))]),
            ("// only", [("", Span(1, 1))]),
            ("// only\n", [("", Span(2, 1))]),
            ("a \t ", [("a", Span(1, 1, 1, 2)), ("", Span(1, 5))]),
            ("a  // c", [("a", Span(1, 1, 1, 2)), ("", Span(1, 4))]),
            ("a /* c */b", [("a", Span(1, 1, 1, 2)),
                            ("b", Span(1, 10, 1, 11)), ("", Span(1, 11))]),
            ("/* c\n */b", [("b", Span(2, 4, 2, 5)), ("", Span(2, 5))]),
            ("\r\n\t/**/x\t// z\r\n", [("x", Span(2, 6, 2, 7)),
                                        ("", Span(3, 1))])):
        assert [(t.text, t.span) for t in lex(text)] == tokens, text
    for text, span in (("a /* b", Span(1, 3, 1, 4)),
                       ("a  /* x", Span(1, 4, 1, 5)),
                       ("a\n \t@", Span(2, 3, 2, 4)),
                       (' \t"s"', Span(1, 3, 1, 4)),
                       ("\n  # x", Span(2, 3, 2, 4)),
                       ("x = \u00b2;", Span(1, 5, 1, 6)),
                       ("x = \u00bd;", Span(1, 5, 1, 6))):
        with pytest.raises(ParseFailure) as e:
            lex(text)
        assert e.value.span == span, text


def test_span_is_its_field_tuple():
    s = Span(2, 5)
    assert (s.line, s.col, s.end_line, s.end_col) == (2, 5, 2, 5)
    assert Span(2, 5, 3, 1) == (2, 5, 3, 1)
    assert hash(s) == hash((2, 5, 2, 5)) and str(s) == "2:5"
    assert sorted([Span(2, 1, 9, 9), Span(1, 7, 1, 8), Span(2, 1)]) == [
        Span(1, 7, 1, 8), Span(2, 1), Span(2, 1, 9, 9)]
    assert repr(s) == "Span(line=2, col=5, end_line=2, end_col=5)"
    assert copy.deepcopy(s) == s and type(copy.deepcopy(s)) is Span
    assert pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(AttributeError):
        s.line = 3


def test_varargs_rejected_by_name():
    with pytest.raises(RejectedConstruct) as e:
        parse_translation_unit("int f(int a, ...) { return a; }")
    assert e.value.kind == "varargs"
    assert (e.value.span.line, e.value.span.col) == (1, 14)


def parens(n):
    return "(" * n + "a" + ")" * n


def with_body(body):
    return f"int f(int a, int* p) {{ {body} return a; }}"


# A statement and each expression (whole, parenthesised or bracketed)
# take one level each, as does each unary operator: the bodies below sit
# exactly at the limit, and one level past it.
AT_LIMIT = {
    "parens": f"return {parens(MAX_NESTING - 2)};",
    "unary": "a = " + "- " * (MAX_NESTING - 2) + "a;",
    "index": "a = " + "p[" * (MAX_NESTING - 2) + "0"
             + "]" * (MAX_NESTING - 2) + ";",
    "blocks": "{" * (MAX_NESTING - 2) + "a = 1;" + "}" * (MAX_NESTING - 2),
    "ifs": "if (a) " * (MAX_NESTING - 3) + "a = (a);",
}
PAST_LIMIT = {
    "parens": f"return {parens(MAX_NESTING - 1)};",
    "unary": "a = " + "- " * (MAX_NESTING - 1) + "a;",
    "index": "a = " + "p[" * (MAX_NESTING - 1) + "0"
             + "]" * (MAX_NESTING - 1) + ";",
    "blocks": "{" * (MAX_NESTING - 1) + "a = 1;" + "}" * (MAX_NESTING - 1),
    "ifs": "if (a) " * (MAX_NESTING - 2) + "a = (a);",
    "parens-89": f"return {parens(89)};",
    "parens-3000": f"return {parens(3000)};",
    "ifs-400": "if (a) " * 400 + "a = 1;",
}


@pytest.mark.parametrize("shape", AT_LIMIT)
def test_nesting_at_the_limit_parses(shape):
    parse_translation_unit(with_body(AT_LIMIT[shape]))


@pytest.mark.parametrize("shape", PAST_LIMIT)
def test_nesting_past_the_limit_is_a_parse_failure(shape):
    with pytest.raises(ParseFailure, match="nesting deeper than 64 levels"):
        parse_translation_unit(with_body(PAST_LIMIT[shape]))


def chain(operators):
    return "+".join(["a"] * (operators + 1))


# Binary and postfix operators count together over one statement.
OPERATORS = {
    "sum": lambda n: with_body(f"return {chain(n)};"),
    "two-sums": lambda n: with_body(
        f"a = ({chain(n // 2)}) * ({chain(n - n // 2 - 1)});"),
    "arrows": lambda n: "struct N { int v; struct N *next; };\n"
                        "int f(struct N *p) { return p"
                        + "->next" * (n - 1) + "->v; }",
}


@pytest.mark.parametrize("shape", OPERATORS)
def test_operators_at_the_limit_parse(shape):
    parse_translation_unit(OPERATORS[shape](MAX_OPERATORS))


@pytest.mark.parametrize("shape", OPERATORS)
def test_operators_past_the_limit_are_a_parse_failure(shape):
    with pytest.raises(ParseFailure, match=f"more than {MAX_OPERATORS} "
                                           "operators in one statement"):
        parse_translation_unit(OPERATORS[shape](MAX_OPERATORS + 1))


# The operators of the subset, tightest-binding tier first, as in C.
C_TIERS = [("*", "/", "%"), ("+", "-"), ("<", "<=", ">", ">="), ("==", "!="),
           ("&&",), ("||",)]
TIER = {op: i for i, ops in enumerate(C_TIERS) for op in ops}


def returned(src):
    return Parser(lex(src)).parse_unit().functions[0].body.stmts[0].value


def tree(e):
    return (e.op, tree(e.lhs), tree(e.rhs)) if isinstance(e, Binary) \
        else e.ident


def test_every_operator_pair_groups_as_in_c():
    wrong = []
    for op1 in TIER:
        for op2 in TIER:
            got = tree(returned(f"int f(int a, int b, int c) "
                                f"{{ return a {op1} b {op2} c; }}"))
            # equal tiers associate to the left
            if TIER[op1] <= TIER[op2]:
                want = (op2, (op1, "a", "b"), "c")
            else:
                want = (op1, "a", (op2, "b", "c"))
            if got != want:
                wrong.append((op1, op2, got))
    assert wrong == []


@pytest.mark.parametrize("ops", [("+",), ("*", "+"), tuple(TIER)])
def test_operator_limit_points_at_the_first_operator_past_it(ops):
    src, cols = "int f(int a) { return a", []
    for k in range(MAX_OPERATORS + 10):
        op = ops[k % len(ops)]
        cols.append(len(src) + 1)
        src += op + "a"
    with pytest.raises(ParseFailure) as e:
        parse_translation_unit(src + "; }")
    op = ops[MAX_OPERATORS % len(ops)]
    col = cols[MAX_OPERATORS]
    assert e.value.span == Span(1, col, 1, col + len(op))


def test_operator_count_restarts_at_each_statement():
    parse_translation_unit(with_body(
        f"a = {chain(MAX_OPERATORS)}; if (a) {{ a = {chain(MAX_OPERATORS)}; }}"))


def test_leading_zero_literals_are_octal():
    ast = parse_translation_unit(
        "int f(int x) { int y = x; if (010 == 8) { y = y + 1; } x = y;"
        " return x; }")
    assert run_source(ast, "f", [3]).ret == 4
    assert [returned(f"int f() {{ return {lit}; }}").value
            for lit in ("0", "00", "07", "010", "0777", "10", "1.5")] \
        == [0, 0, 7, 8, 511, 10, Fraction(3, 2)]
    (g,) = parse_translation_unit("int g[010];").globals
    assert g.ctype == ArrayType(INT, 8)


@pytest.mark.parametrize("src,span", [
    ("int f() { return 08; }", Span(1, 18, 1, 20)),
    ("int f() { return 1 + 0179; }", Span(1, 22, 1, 26)),
    ("int g[09];", Span(1, 7, 1, 9)),
])
def test_octal_literal_with_a_decimal_digit_is_a_parse_failure(src, span):
    with pytest.raises(ParseFailure, match="invalid digit in octal literal") \
            as e:
        parse_translation_unit(src)
    assert e.value.span == span


def test_roundtrip_corpus():
    for path in sorted(CORPUS.glob("*.c")):
        src = path.read_text()
        ast1 = parse_translation_unit(src)
        ast2 = parse_translation_unit(ast_text(ast1))
        # equality skips spans, resolved declarations and expression
        # types, and compares declared types
        assert ast1 == ast2, path.name


def test_classify_nested_member_address():
    src = corpus_source("nested_member.c")
    report = classify_constructs(parse_translation_unit(src))
    kinds = [it.kind for it in report.unmodelable_items]
    assert "address-of-member" in kinds


def test_classify_address_of_a_struct_with_nested_members(capsys,
                                                          tmp_path):
    """`&s` of a struct holding a struct or an array is an item, and the
    pipeline pollutes the pointer and the struct; `&q` of a flat struct
    is none."""
    src = ("struct T { int x; };\nstruct S { struct T t; int y; };\n"
           "struct Q { int x; };\n"
           "int f(int a) { struct S s; struct S *p = &s; struct Q q;"
           " struct Q *r = &q; int b = a; s.y = a; p->y = b; return a; }\n")
    report = classify_constructs(parse_translation_unit(src))
    assert [(it.kind, it.span.line, it.span.col)
            for it in report.unmodelable_items] == \
        [("address-of-aggregate-with-nested-members", 4, 42)]
    path = tmp_path / "agg.c"
    path.write_text(src)
    assert main([str(path), "--solver", "none"]) == 0
    assert capsys.readouterr().out.endswith("excluded as polluted: p, s\n")


def test_classify_walks_a_global_initializer_list():
    """`&s.a` in a global's `{...}` is flagged as it is in a local's, and
    the normalizer tags the address it takes as the item."""
    from invarc.normalize import program_text, to_simple_assignments
    struct = "struct S { int a; int b; }; struct S s;\n"
    init = "int *ps[2] = {&s.a, &s.b};"
    for src in (f"{struct}{init}\nint f(int x) {{ return x; }}",
                f"{struct}int f(int x) {{ {init} return x; }}"):
        ast = parse_translation_unit(src)
        report = classify_constructs(ast)
        assert [it.kind for it in report.unmodelable_items] == \
            ["address-of-member"] * 2, src
        text = program_text(to_simple_assignments(ast, report, "f"))
        assert text.count("# item") == 2, text


def test_classify_scalar_program_clean():
    src = "int f(int a) { int b = a + 1; return b; }"
    report = classify_constructs(parse_translation_unit(src))
    assert report.unmodelable_items == []


def test_classify_recursive_call():
    report = classify_constructs(
        parse_translation_unit(corpus_source("recursive.c")))
    kinds = {it.kind for it in report.unmodelable_items}
    assert "recursive-call" in kinds


def test_classify_library_call():
    src = "int f(int a) { int r = mystery(a); return r; }"
    report = classify_constructs(parse_translation_unit(src))
    kinds = {it.kind for it in report.unmodelable_items}
    assert "library-call" in kinds


def test_classify_collects_the_unit_facts():
    report = classify_constructs(
        parse_translation_unit(corpus_source("recursive.c")))
    assert report.recursive == {"fact"}
    report = classify_constructs(parse_translation_unit(
        "int g(int a) { return a; }\n"
        "int h(int a) { return a + 1; }\n"
        "int (*fp)(int) = &h;\n"
        "int f(int a) { int (*q)(int) = &g; return q(a) + fp(a); }"))
    assert report.address_taken == ("g", "h")
    assert report.recursive == frozenset()


def test_classify_pointer_calls():
    # `g` is only called directly, so a pointer cannot reach it; `t`
    # calls itself through a pointer, so it is recursive
    ast = parse_translation_unit(
        "int g(int a) { return a; }\n"
        "int t(int n) { int (*p)(int) = &t; if (n > 0) { n = p(n - 1); }"
        " return g(n); }\n"
        "int f(int a) { return t(a); }")
    report = classify_constructs(ast)
    assert report.address_taken == ("t",)
    assert report.fp_targets(ast, FuncPtrType((INT,), INT)) == ["t"]
    assert report.recursive == {"t"}
    assert [(it.span.line, it.kind) for it in report.unmodelable_items] \
        == [(2, "recursive-call"), (3, "recursive-call")]


def test_function_lookup_sees_later_definitions():
    ast = parse_translation_unit("int f(int a) { return a; }")
    assert ast.function("f") is ast.functions[0]
    assert ast.function("g") is None
    ast.functions.append(parse_translation_unit(
        "int g(int a) { return a; }").functions[0])
    assert ast.function("g") is ast.functions[1]


def test_classify_deterministic():
    src = corpus_source("nested_member.c")
    r1 = classify_constructs(parse_translation_unit(src))
    r2 = classify_constructs(parse_translation_unit(src))
    assert [(i.kind, i.span) for i in r1.unmodelable_items] == \
        [(i.kind, i.span) for i in r2.unmodelable_items]


def test_every_expression_typed():
    from invarc.frontend.classify import walk_exprs
    ast = parse_translation_unit(corpus_source("sequential_scan.c"))
    missing = []
    note = lambda e: missing.append(e) if e.ctype is None else None
    for fn in ast.functions:
        walk_exprs(fn.body, note)
    assert not missing


@pytest.mark.parametrize("cmp", ["p == 0", "0 == p", "p != 0", "0 != p"])
def test_zero_compared_with_a_pointer_is_null(cmp):
    ast = parse_translation_unit(f"int f(int *p) {{ return {cmp}; }}")
    null = ast_text(parse_translation_unit(
        f"int f(int *p) {{ return {cmp.replace('0', 'NULL')}; }}"))
    assert ast_text(ast) == null


def test_nonzero_compared_with_a_pointer_is_rejected():
    with pytest.raises(FrontendTypeError, match="invalid pointer comparison"):
        parse_translation_unit("int f(int *p) { return p == 1; }")


@pytest.mark.parametrize("lit", ["0x10", "0XfF", "10L", "10u", "7UL",
                                 "1.5e3", "1.5f", "08L"])
def test_unsupported_numeric_literal_is_named_whole(lit):
    src = f"int f(int x) {{ return x + {lit}; }}"
    with pytest.raises(RejectedConstruct) as e:
        parse_translation_unit(src)
    assert e.value.message == f"unsupported construct: numeric literal " \
                              f"{lit!r}"
    assert e.value.span == Span(1, 27, 1, 27 + len(lit))


READ_BACK = ("int g; int a[4];\n"
             "int inc() {{ g = g + 1; return 0; }}\n"
             "int f(int x) {{ g = g - 2; {stmt} return g; }}\n")


@pytest.mark.parametrize("stmt,op", [("a[inc()] += x;", "+="),
                                     ("a[inc()]++;", "++"),
                                     ("--a[inc()];", "--")])
def test_read_back_of_a_target_that_holds_a_call_is_rejected(stmt, op):
    # `t op= v` is parsed as `t = t op v`, which would run `inc` twice
    with pytest.raises(RejectedConstruct) as e:
        parse_translation_unit(READ_BACK.format(stmt=stmt))
    assert e.value.message == \
        f"unsupported construct: {op} on a target that holds a call"


def test_plain_assignment_to_a_target_that_holds_a_call_runs_it_once():
    ast = parse_translation_unit(READ_BACK.format(stmt="a[inc()] = x;"))
    assert run_source(ast, "f", [5]).ret == -1
