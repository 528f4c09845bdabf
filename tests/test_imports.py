"""Every module-level import of the package is used in its module, every
module-level function and class is read somewhere in the package, every
attribute that a package class stores on itself is read somewhere, and one
call site traces the package's kernels; `line_counts` sorts lines by kind."""

import ast
from pathlib import Path

import pytest

import line_counts

SRC = Path(__file__).resolve().parents[1] / "src" / "so3track"
TESTS = Path(__file__).resolve().parent
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


def stored_attributes(source: str) -> list[tuple[str, int, str]]:
    """(class, line, name) of each attribute that a method of a class in `source` stores on self.

    A store is `self.x = ...` (or an annotated or augmented one) or
    `object.__setattr__(self, "x", ...)`.
    """
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for n in ast.walk(cls):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"):
                out.append((cls.name, n.lineno, n.attr))
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "__setattr__" and isinstance(n.func.value, ast.Name)
                  and n.func.value.id == "object" and len(n.args) == 3
                  and isinstance(n.args[1], ast.Constant)):
                out.append((cls.name, n.lineno, n.args[1].value))
    return out


def unread_attributes(sources: dict, readers: list[str]) -> list[str]:
    """Attributes that a class of `sources` ({module: source}) stores and no reader reads.

    An attribute is read where a source of `readers` takes it as an attribute
    (`obj.x` in a load).
    """
    read = {n.attr for src in readers for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{module}:{line}: {cls}.{name}" for module, src in sources.items()
            for cls, line, name in stored_attributes(src) if name not in read]


def test_checker_finds_an_unread_attribute():
    sources = {"a": (
        "class K:\n"
        "    def __init__(self, v):\n"
        "        self.used = v\n"
        "        self.left: int = v\n"
        "        object.__setattr__(self, 'frozen', v)\n"
        "        object.__setattr__(self, 'kept', v)\n"
        "    def get(self):\n"
        "        self.used += 1\n"
        "        return self.used, self.kept\n"
    )}
    assert unread_attributes(sources, list(sources.values())) == ["a:4: K.left", "a:5: K.frozen"]


def test_every_stored_attribute_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = list(sources.values()) + [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unread_attributes(sources, readers) == []


def trace_calls(sources: dict) -> list[str]:
    """The calls of `straightline.trace` in `sources` ({module: source}).

    A call is `straightline.trace(...)`, or one of a name that
    `from .straightline import trace` binds.
    """
    out = []
    for module, src in sources.items():
        tree = ast.parse(src)
        names = {alias.asname or alias.name for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and (n.module or "").endswith("straightline")
                 for alias in n.names if alias.name == "trace"}
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            if ((isinstance(f, ast.Attribute) and f.attr == "trace"
                 and isinstance(f.value, ast.Name) and f.value.id == "straightline")
                    or (isinstance(f, ast.Name) and f.id in names)):
                out.append(f"{module}:{n.lineno}")
    return out


def test_checker_finds_every_trace_call():
    sources = {
        "a": "from . import straightline\n\nt = straightline.trace(f, 'f')\nnp.trace(m)\n",
        "b": "from .straightline import trace as tr\n\ndef g():\n    return tr(f, 'g')\n",
    }
    assert trace_calls(sources) == ["a:3", "b:4"]


def test_one_call_site_traces_the_kernels():
    # `_TrackingLoop._compile` traces every kernel and keeps the one cache of
    # traces; a second call site would grow a second cache
    sources = {p.name: p.read_text() for p in MODULES if p.name != "straightline.py"}
    calls = trace_calls(sources)
    assert len(calls) == 1 and calls[0].startswith("controllers.py:")


def test_line_counts_counts_each_line_once_by_kind():
    source = '"""Doc\nstring."""\n\nx = """two\nlines"""  # comment\n# comment\n'
    assert line_counts.count(source) == {"code": 2, "docstring": 2, "comment": 1, "blank": 1,
                                         "total": 6}
