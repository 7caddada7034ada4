"""Every name a treelocal module or a test module imports is used in
that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treelocal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements anywhere in the module (a
    dotted import binds its first part) that no name in the module reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10
    assert len(TEST_MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, json as j, os.path\n"
              "from typing import Optional\n"
              "def f(x: Optional[int]):\n"
              "    from math import pi, tau\n"
              "    return pi, 'tau'\n")
    assert unused_imports(source) == ["j (line 2)", "os (line 2)", "tau (line 5)"]
