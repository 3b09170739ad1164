"""Every name a module imports is used in that module, and no module of
the package imports another's private name.

The checks read each module under `src/` and `tests/` with the stdlib
`ast` module: a name that an `import` binds must occur as a name
somewhere else in the module, or be listed in its `__all__` (a
re-export).  `from __future__` imports bind no name and are skipped.  A
module under `src/invarc` imports no `_`-prefixed name from another
module: a name another module needs is public."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests")


def modules():
    for tree in TREES:
        yield from sorted((ROOT / tree).rglob("*.py"))


def imported_names(module):
    """(bound name, line) of every import in `module`."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def exported_names(module):
    """The strings of a module-level `__all__` list or tuple."""
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source):
    module = ast.parse(source)
    used = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    used |= exported_names(module)
    return [(name, line) for name, line in imported_names(module)
            if name not in used]


def private_imports(source):
    """(name, line) of every `_`-prefixed, non-dunder name that `source`
    imports from another module."""
    return [(a.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for a in node.names
            if a.name.startswith("_") and not a.name.startswith("__")]


def test_the_checker_finds_an_unused_import():
    src = ("import os, sys as system\nfrom json import dumps, loads as ld\n"
           "from __future__ import annotations\n"
           "from a.b import c\nimport x.y\n__all__ = ['c']\n"
           "print(os.sep, ld, x.y)\n")
    assert unused_imports(src) == [("system", 1), ("dumps", 2)]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in modules()
             for name, line in unused_imports(path.read_text())]
    assert found == []


def test_the_checker_finds_a_private_import():
    src = ("from ._records import field, record\nimport _thread\n"
           "from .pollution import (\n    DependencyGraph, _store_bases)\n"
           "from . import _tables\nfrom .x import __version__\n"
           "def f():\n    from .refute import _Array\n")
    assert private_imports(src) == [("_store_bases", 3), ("_tables", 5),
                                    ("_Array", 8)]


def test_no_module_imports_a_private_name_of_another():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "invarc").rglob("*.py"))
             for name, line in private_imports(path.read_text())]
    assert found == []
