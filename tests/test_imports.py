"""No module of the package imports a name it never uses, or keeps a private one it never reads.

Stand-ins for a linter's unused-import and unused-name rules, with the
standard library's `ast` only: a name counts as used when the module reads
it anywhere or lists it in `__all__`. A private module-level name (`_x`, not
a dunder) must be read in its own module, so that no helper outlives its
last caller.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rachsim").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}  # private module-level name -> line
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unread_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_leftovers():
    source = (
        "from collections import deque\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .model import RachConfig\n"
        "__all__ = ['RachConfig']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["line 1: deque", "line 2: field", "line 4: os"]


def test_the_check_sees_unread_private_names():
    source = (
        "__all__ = ['run']\n"
        "_LIMIT = 3\n"
        "_CACHE: dict = {}\n"
        "_a, _b = 1, 2\n"
        "def _estimates(x):\n"
        "    return x\n"
        "class _Kernel:\n"
        "    pass\n"
        "def _used():\n"
        "    return _LIMIT + _a\n"
        "def run():\n"
        "    _CACHE = {}\n"
        "    return _used()\n"
    )
    assert unread_private_names(source) == [
        "line 3: _CACHE", "line 4: _b", "line 5: _estimates", "line 7: _Kernel",
    ]
