"""Every name a treelocal module or a test module imports is used in
that module, and importing treelocal compiles no generated code."""

import ast
import pathlib
import subprocess
import sys

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


def generated_code(source: str) -> list[str]:
    """The dataclasses imports, @dataclass decorators and exec or eval
    calls of the module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [f"import {a.name} (line {node.lineno})" for a in node.names
                    if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            out.append(f"from dataclasses (line {node.lineno})")
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", getattr(target, "attr", None))
                if name == "dataclass":
                    out.append(f"@dataclass {node.name} (line {dec.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("exec", "eval")):
            out.append(f"{node.func.id} (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_generated_code(path):
    """Every cold start imports the whole package.  When 19 classes were
    dataclasses, generating their methods and compiling them with exec
    took about 14 ms of a 68 ms ``import treelocal`` without cached
    bytecode (median of 15 starts, 2 CPUs, Python 3.11.7), the largest
    share after compiling the sources; the classes now write their methods
    out, or are named tuples."""
    assert generated_code(path.read_text()) == []


def bytecode_caches() -> set[pathlib.Path]:
    """The __pycache__ directories under src/treelocal and their files."""
    return {p for p in SRC.rglob("*") if "__pycache__" in p.parts}


def test_cli_import_loads_no_dataclasses():
    """A fresh ``python -S`` process that imports the CLI loads neither
    dataclasses nor the inspect module that it imports: about 10 ms of a
    cold start (same measurement) that no command needs.  It writes no
    bytecode into the source tree: -I ignores PYTHONDONTWRITEBYTECODE, so
    -B says it, and a cache left there would make a later cold start of
    the same checkout skip compiling."""
    before = bytecode_caches()
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import treelocal.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(SRC.parent)],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    assert bytecode_caches() <= before


def test_detector_flags_generated_code():
    source = ("import dataclasses, os\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\n"
              "class A:\n    x: int\n"
              "@dataclasses.dataclass\n"
              "class B:\n    pass\n"
              "@staticmethod\n"
              "def f():\n    return eval('1') + exec('pass')\n")
    assert generated_code(source) == [
        "import dataclasses (line 1)", "from dataclasses (line 2)",
        "@dataclass A (line 3)", "@dataclass B (line 6)",
        "eval (line 11)", "exec (line 11)"]
