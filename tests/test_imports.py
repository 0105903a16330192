"""Every module-level import of the package is used in its module, and
every module-level private function is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rupturekit"
# __init__.py imports to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports that nothing else in the
    source reads, as `line: name`.  A quoted annotation counts as a
    read of the names in it; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\n"
              "from typing import Optional, Sequence\n"
              "def f(x: 'Optional[int]') -> int:\n    return x\n")
    assert unused_imports(source) == ["2: math", "3: Sequence"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level functions named with a leading `_` (dunders aside)
    that no statement of any source reads, other than their own
    definitions, as `module: name`.  A read is a name, an attribute or a
    name imported by `from ... import`."""
    helpers = []
    reads = []   # (top-level statement, the names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                helpers.append((module, stmt))
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            reads.append((stmt, names))
    return [f"{module}: {stmt.name}" for module, stmt in helpers
            if not any(stmt.name in names for other, names in reads
                       if other is not stmt)]


def test_finds_an_unreferenced_helper():
    sources = {"a.py": ("def _used():\n    return 1\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n"
                        "def __getattr__(name):\n    return name\n"),
               "b.py": "from .a import _used\nx = _used()\n"}
    assert unreferenced_helpers(sources) == ["a.py: _recursive"]


def test_no_unreferenced_helper():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_helpers(sources) == []
