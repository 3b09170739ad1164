"""The record classes of `invarc._records`, which stand in for
`dataclasses`: equality over the compare fields, hashing and refused
assignment of frozen records, fresh default factories, `replace`, and
the dataclass `repr` format that the frontend digests hash."""

import pytest

from invarc._records import field, fields, record, replace
from invarc.diagnostics import Span
from invarc.frontend import parse_translation_unit
from invarc.frontend.ast import (
    INT, LONG, ArrayType, Ast, Call, CompoundStmt, FuncPtrType, IntLit,
    Name, PointerType, StructType,
)
from invarc.frontend.classify import classify_constructs
from invarc.normalize import NWhile, VarRef
from invarc.solver import SolverConfig

UNIT = "int g;\nint f(int x) { g = x; return 0; }\n"


def test_equality_ignores_the_fields_not_compared():
    a = Name(span=Span(1, 1), ctype=INT, ident="x", decl=object())
    b = Name(span=Span(7, 3), ctype=LONG, ident="x")
    assert a == b
    assert a != Name(ident="y")
    assert IntLit(value=0) != Name(ident="x")


def test_frozen_records_hash_by_value_and_refuse_assignment():
    t = ArrayType(PointerType(INT), 3)
    assert t == ArrayType(PointerType(INT), 3)
    assert {t: 1}[ArrayType(PointerType(INT), 3)] == 1
    assert len({INT, LONG, StructType("P"), StructType("P")}) == 3
    with pytest.raises(AttributeError):
        t.length = 4
    with pytest.raises(AttributeError):
        del t.elem
    assert t.length == 3
    with pytest.raises(TypeError):      # a mutable record has no hash
        hash(Name(ident="x"))


def test_default_factory_gives_each_record_its_own_value():
    a, b = Call(), Call()
    a.args.append(IntLit(value=1))
    assert b.args == [] and CompoundStmt().stmts == []


def test_replace_sets_the_other_fields_and_runs_post_init():
    w = NWhile(None, body=[1, 2], recheck=[3])
    r = replace(w, body=[1])
    assert (r.body, r.recheck, w.body) == ([1], [3], [1, 2])
    cfg = SolverConfig("z3")
    assert replace(cfg, timeout_ms=5).args == ()
    with pytest.raises(ValueError):
        replace(cfg, timeout_ms=0)


def test_replace_gives_init_false_fields_their_default():
    """An `init=False` field is a cache of its record; the record that
    `replace` makes starts with an empty one, and the field cannot be
    passed."""
    ast = parse_translation_unit(UNIT)
    assert ast.function("f") is not None
    other = replace(ast, functions=[])
    assert other._by_name == (-1, None) and other.function("f") is None
    assert ast.function("f") is not None
    with pytest.raises(TypeError):
        replace(ast, _by_name=(0, {}))
    report = classify_constructs(ast)
    assert report.written_globals(ast, "f") == {"g"}
    assert report._writes
    assert replace(report)._writes == {}


def test_repr_is_the_dataclass_format():
    assert repr(ArrayType(PointerType(INT), 3)) == \
        "ArrayType(elem=PointerType(target=IntType()), length=3)"
    assert repr(FuncPtrType((INT,), LONG)) == \
        "FuncPtrType(params=(IntType(),), ret=LongType())"
    assert repr(Name(span=Span(1, 1), ctype=INT, ident="x")) == \
        "Name(ident='x')"
    assert repr(VarRef("v")) == "VarRef(name='v')"
    assert repr(Ast()) == "Ast(struct_defs=[], globals=[], functions=[])"


def test_fields_in_declaration_order_base_first():
    assert [f.name for f in fields(Name)] == ["span", "ctype", "ident", "decl"]
    assert [f.name for f in fields(Name(ident="x"))] == \
        ["span", "ctype", "ident", "decl"]
    with pytest.raises(TypeError):
        fields(3)


def test_an_init_false_field_without_default_is_not_a_parameter():
    @record
    class Memo:
        key: int
        cache: dict = field(init=False, repr=False)

    m = Memo(1)
    assert not hasattr(m, "cache") and repr(m).endswith(".Memo(key=1)")
    with pytest.raises(TypeError):
        Memo(1, {})
    m.cache = {1: 2}
    assert replace(m, key=2).key == 2
    assert not hasattr(replace(m), "cache")
