"""Source hygiene: every name a package module imports is used there or exported, every
private function, method or class it defines is named somewhere else in the project, and
no module codes a scalar rule of its own."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bgmo"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, nan, pi\n"
        "__all__ = ['pi']\n"
        "def f(x: np.ndarray):\n"
        "    return inf\n"
    )
    assert unused_imports(source) == ["nan", "os"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unreferenced_private_names(package_sources: list[str], all_sources: list[str]) -> list[str]:
    """Private functions, methods and classes the package defines that no source names.

    A name counts as named where an expression reads it (``f``, ``obj.f``),
    an import binds it, or a string constant is exactly it (as in
    ``monkeypatch.setattr(cls, "_f", ...)``); its own ``def`` or ``class``
    does not count.
    """
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    defined = {
        node.name
        for source in package_sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, defs) and _is_private(node.name)
    }
    named = set()
    for source in all_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return sorted(defined - named)


def test_no_unreferenced_private_names():
    # this file is left out: its own test names the private names it expects to find
    sources = [
        path.read_text()
        for directory in ("src", "tests", "benchmark")
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path != Path(__file__).resolve()
    ]
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_names(package, sources) == []


def test_the_check_sees_an_unreferenced_private_name():
    package = (
        "class _Kernel:\n"
        "    def __call__(self, x):\n"
        "        return self._float(x)\n"
        "    def _float(self, x):\n"
        "        return x\n"
        "    def _block(self, x):\n"
        "        return x\n"
        "    def _patched(self, x):\n"
        "        return x\n"
        "def _helper():\n"
        "    return _Kernel()\n"
        "def _unused():\n"
        "    return _helper()\n"
    )
    test = "from pkg import _helper\nsetattr(_helper(), '_patched', None)\n"
    assert unreferenced_private_names([package], [package, test]) == ["_block", "_unused"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_codes_its_own_scalar_rule(path):
    # ``special._scalar_or_array`` is the one rule for what a 0-d input returns;
    # ``np.isscalar`` says False for a 0-d array, so a copy built on it disagrees
    assert "isscalar" not in path.read_text()
