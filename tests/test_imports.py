"""No unused imports in the library: a name a module imports must be used in
it. ``__init__.py`` re-exports by design, and a line marked ``# noqa: F401``
keeps a name other code looks up on that module."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "minstab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside string annotations such as ``-> "StabModel"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":  # from __future__ import annotations
                    imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a]
            for ann in [a.annotation for a in args] + [node.returns]:
                if ann is not None:
                    used |= _annotation_names(ann)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def environment_reads(source: str) -> list[str]:
    """Reads of os.environ or os.getenv, however os or the name is imported."""
    names = ("environ", "environb", "getenv")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    # the library's behaviour is set by its arguments alone: no environment
    # variable may switch a tuning knob on or off
    assert environment_reads(path.read_text()) == []


def test_environment_check_flags_each_form():
    source = (
        "import os\n"
        "from os import getenv\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('Y')\n"
        "c = getenv('Z')\n"
    )
    assert environment_reads(source) == [
        "getenv (line 2)", "environ (line 3)", "getenv (line 4)"
    ]


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "import os\n"
        "from typing import Optional, Sequence\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Optional (line 2)"]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Private functions, methods and classes (one leading underscore) that
    these sources define and never name anywhere else: no call, attribute,
    import or other reference to the name."""
    defined: dict[str, str] = {}
    named: set[str] = set()
    for label, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.setdefault(node.name, f"{node.name} ({label} line {node.lineno})")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [where for name, where in defined.items() if name not in named]


def test_no_orphaned_private_names():
    # a private helper only its own module can call; once no caller is left
    # it is dead code
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def test_orphan_check_flags_a_helper_nothing_names():
    sources = {
        "a.py": "def _used():\n    pass\n\nclass _Orphan:\n    def _kept(self):\n        pass\n",
        "b.py": "from a import _used\n\ndef run(obj):\n    _used()\n    obj._kept()\n",
    }
    assert orphaned_private_names(sources) == ["_Orphan (a.py line 4)"]


@pytest.mark.parametrize("package", ["scipy", "mpmath"])
def test_cli_import_leaves_package_out(package):
    # scipy is a test-only dependency, and importing it would more than
    # double the command-line tool's start-up time; mpmath serves only the
    # oracle's exact length comparisons, which load it on first use
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import minstab.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
