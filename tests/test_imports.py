"""Every module-level import of the package is used in its module, and every
module-level function and class is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "so3track"
# The package's __init__ imports to re-export: its imports are the public API.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def unread_definitions(sources: dict, init: str) -> list[str]:
    """Module-level functions and classes of `sources` ({module: source}) that no module reads.

    A definition is read where a module names it or takes it as an attribute;
    one that the package `__init__` (source `init`) imports is re-exported.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = {alias.name for node in ast.parse(init).body if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [f"{module}:{node.lineno}: {node.name}" for module, tree in trees.items()
            for node in tree.body if isinstance(node, defs) and node.name not in read]


def test_checker_finds_an_unused_import():
    assert unused_imports("import math\nimport warnings\nx = math.pi\n") == ["line 2: warnings"]
    assert unused_imports("from .a import b, c\nprint(c)\n") == ["line 1: b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unread_definition():
    sources = {
        "a": "def f():\n    return g()\n\ndef g():\n    pass\n\nclass K:\n    pass\n",
        "b": "from . import a\n\ndef h():\n    return a.f\n\ndef left():\n    return 1\n",
    }
    assert unread_definitions(sources, "from .a import K\nfrom .b import h\n") == ["b:6: left"]


def test_every_definition_is_read_or_re_exported():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unread_definitions(sources, (SRC / "__init__.py").read_text()) == []
