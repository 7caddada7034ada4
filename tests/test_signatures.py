"""Every parameter of a module-level treelocal function is read in its body.

Methods are exempt: a base class or a protocol fixes their signatures.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treelocal"
MODULES = sorted(SRC.glob("*.py"))


def unread_parameters(source: str) -> list[str]:
    """The parameters of the module's top-level functions that no name in
    the function's body (nested functions included) reads."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}({p})" for p in params if p not in read]
    return out


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_detector_flags_unread_parameters():
    source = ("def f(a, b=1, *args, c, **kw):\n"
              "    def g(x):\n"
              "        return x + c\n"
              "    b = 2\n"
              "    return g(0)\n"
              "class C:\n"
              "    def method(self, unused):\n"
              "        return 0\n"
              "def h(y: 'a', z=None):\n"
              "    return y\n")
    assert unread_parameters(source) == ["f(a)", "f(b)", "f(args)", "f(kw)",
                                         "h(z)"]
