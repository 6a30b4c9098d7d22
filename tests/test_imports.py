"""No module of the package imports a name it never uses, or keeps a private one it never reads.

Stand-ins for a linter's unused-import and unused-name rules, with the
standard library's `ast` only: a name counts as used when the module reads
it anywhere or lists it in `__all__`. A private module-level name (`_x`, not
a dunder) must be read in its own module, so that no helper outlives its
last caller. And no module but `model` words a range requirement in an error
it raises: a value's range is checked by `model.check_range` (or, for an
integer, `model.check_integer`), not by hand. A `SettingError` message is
plain text with no brace in its literal parts, so that no call site words it
as a template for another layer to fill in. Every refusal `cli` raises as a
`ScenarioError` starts with the flag it refuses, as `--` text or a `{flag}`
placeholder, so that no refusal leaves the user to guess which value it means.
"""

import ast
import re
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


# The wording of check_range's and check_integer's messages, and its "needs" variant.
RANGE_REQUIREMENT = re.compile(r"(must be|needs) (finite|>=|>|in [\[(]|an integer)")


def hand_written_range_checks(source: str) -> list[str]:
    """The raise statements whose message text states a range requirement."""
    raises = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    return [
        f"line {node.lineno}"
        for node in sorted(raises, key=lambda node: node.lineno)
        if node.exc is not None and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str)
            and RANGE_REQUIREMENT.search(part.value)
            for part in ast.walk(node.exc)
        )
    ]


def templated_setting_errors(source: str) -> list[str]:
    """The SettingError calls with a brace in one of their string constants."""
    calls = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and "SettingError" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    ]
    return [
        f"line {node.lineno}"
        for node in sorted(calls, key=lambda node: node.lineno)
        if any(
            isinstance(part, ast.Constant) and isinstance(part.value, str)
            and ("{" in part.value or "}" in part.value)
            for part in ast.walk(node)
        )
    ]


def refusals_without_a_flag(source: str) -> list[str]:
    """The ScenarioError raises whose message does not start with `--` text or `{flag}`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        call = node.exc if isinstance(node.exc, ast.Call) else None
        error = node.exc if call is None else call.func
        if "ScenarioError" not in (getattr(error, "id", None), getattr(error, "attr", None)):
            continue
        first = call.args[0] if call and call.args else None
        if isinstance(first, ast.JoinedStr):
            first = first.values[0]
        if not (
            isinstance(first, ast.FormattedValue) and getattr(first.value, "id", None) == "flag"
            or isinstance(first, ast.Constant) and str(first.value).startswith("--")
        ):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unread_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "model.py"], ids=lambda path: path.name
)
def test_no_hand_written_range_check(path):
    assert hand_written_range_checks(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_templated_setting_error(path):
    assert templated_setting_errors(path.read_text(encoding="utf-8")) == []


def test_every_cli_refusal_names_its_flag():
    [cli] = [path for path in SOURCES if path.name == "cli.py"]
    assert refusals_without_a_flag(cli.read_text(encoding="utf-8")) == []


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


def test_the_check_sees_hand_written_range_checks():
    source = (
        "def f(x, n, p, name):\n"
        "    if not 0 <= x < math.inf:\n"
        "        raise ValueError(f'x must be finite and >= 0, got {x}')\n"
        "    if n < 1:\n"
        "        raise ValueError('n must be ' '>= 1')\n"
        "    if not 0 < p <= 1:\n"
        "        raise SettingError(f'{{p}} must be in (0, 1], got {p}', 'p')\n"
        "    if n > 9:\n"
        "        raise ValueError(f'{name} must be > 9')\n"
        "    if p != p:\n"
        "        raise ValueError('p must not be NaN')\n"
        "    if not 0 <= x < math.inf:\n"
        "        raise ValueError(f'segment {name} needs finite rates >= 0')\n"
        "    if x > 1:\n"
        "        raise ValueError('lambert_w: lower branch requires -1/e <= x < 0')\n"
        "    if not name:\n"
        "        raise ValueError('profile needs at least one segment')\n"
        "    raise ScenarioError(f'{name} must be an integer, got {x!r}')\n"
    )
    assert hand_written_range_checks(source) == [
        "line 3", "line 5", "line 7", "line 9", "line 13", "line 18",
    ]


def test_the_check_sees_templated_setting_errors():
    source = (
        "def f(x, name, value, kinds):\n"
        "    raise SettingError('{n_s_min} must not exceed {n_s_max}', 'n_s_min', 'n_s_max')\n"
        "    raise SettingError(f'{{{name}}} must be finite, got {value}', name)\n"
        "    raise SettingError(f'kind must be one of {kinds}, got {value!r}', 'kind')\n"
        "    got = repr(value).replace('{', '{{')\n"
        "    raise model.SettingError(\n"
        "        f'x must be ' f'{{x}}', 'x')\n"
        "    raise SettingError(f'got {repr(value).replace(\"}\", \"}}\")}', 'x')\n"
        "    raise ValueError('{x} is a template')\n"
        "    raise SettingError(f'{name} must be < {x:.3g}', name)\n"
    )
    assert templated_setting_errors(source) == ["line 2", "line 3", "line 6", "line 8"]


def test_the_check_sees_refusals_without_a_flag():
    source = (
        "def f(flag, other_flag, path, n, message):\n"
        "    raise ScenarioError(f'{flag}: {path} is a directory') from None\n"
        "    raise ScenarioError('--controllers: compare needs two controllers')\n"
        "    raise scenario.ScenarioError(f'--out: no directory {path}')\n"
        "    raise ScenarioError(f'{n} frames x 1 replications exceed the bound')\n"
        "    raise ScenarioError('scenario file not found: ' f'{path}')\n"
        "    raise ScenarioError(f'{other_flag}: {path}')\n"
        "    raise ScenarioError(message)\n"
        "    raise ScenarioError\n"
        "    raise scenario.ScenarioError()\n"
        "    raise ValueError(f'{n} frames exceed the bound')\n"
        "    raise SettingError(f'{n} frame rows exceed the bound', 'n_reps')\n"
    )
    assert refusals_without_a_flag(source) == [
        "line 5", "line 6", "line 7", "line 8", "line 9", "line 10",
    ]
