"""Every parameter of a module-level treelocal function is read in its body
(methods are exempt: a base class or a protocol fixes their signatures), and
every defaulted parameter, methods included, is passed by some call in the
library: a default that no caller varies is a constant.
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


# module.function(parameter) -> why it keeps a default that no call in src
# passes
DEFAULT_EXEMPT = {
    "chains.restriction_correspondence_check(sample_cap)":
        "tests shrink the sample to compare with the scanned transports",
    "chains.restriction_correspondence_check(seed)":
        "tests draw the sample under many seeds",
    "cli.main(argv)": "the benchmark and the tests drive the CLI through it",
}


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in the sources, keyed by the called name: f for f(...)
    and for x.f(...)."""
    out: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                out.setdefault(name, []).append(node)
    return out


def _defaulted(body, prefix: str, cls=None):
    """(qualified name, name callers call, parameter, positional index or
    None) for every defaulted parameter of the functions in body, nested
    functions and methods included.  A class's __init__ and __new__ are
    called by the class's name; a method's index skips self or cls."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defaulted(node.body, f"{prefix}{node.name}.", node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            static = any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                         for dec in node.decorator_list)
            skip = 1 if cls is not None and not static else 0
            called = (cls if cls is not None and node.name in ("__init__", "__new__")
                      else node.name)
            first = len(positional) - len(a.defaults)
            for i, p in enumerate(positional[first:], first):
                yield f"{prefix}{node.name}({p.arg})", called, p.arg, i - skip
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{prefix}{node.name}({p.arg})", called, p.arg, None
            yield from _defaulted(node.body, f"{prefix}{node.name}.")


def _passes(call: ast.Call, param: str, index) -> bool:
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if index is None:
        return False
    return (any(isinstance(x, ast.Starred) for x in call.args)
            or len(call.args) > index)


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """The defaulted parameters, as module.function(parameter), that no
    call in the sources passes, by position or by keyword."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    calls = _calls(trees.values())
    return [name
            for module, tree in trees.items()
            for name, called, param, index in _defaulted(tree.body, f"{module}.")
            if not any(_passes(c, param, index) for c in calls.get(called, []))]


def test_every_default_is_passed_by_the_library():
    found = set(unpassed_defaults({p.stem: p.read_text() for p in MODULES}))
    assert sorted(found - DEFAULT_EXEMPT.keys()) == []
    # an exempt default that the library now passes needs no entry
    assert sorted(DEFAULT_EXEMPT.keys() - found) == []


def test_detector_flags_unpassed_defaults():
    sources = {
        "a": ("def f(x, y=1, *, z=2):\n    return x\n"
              "def g(x, y=1):\n    return x\n"
              "def h(x=0, y=1):\n    return x\n"
              "class C:\n"
              "    def __init__(self, a, b=0):\n        pass\n"
              "    def m(self, k=1):\n        return k\n"
              "    @staticmethod\n"
              "    def s(k=1):\n        return k\n"
              "    def n(self):\n"
              "        def inner(q=3):\n            return q\n"
              "        return inner()\n"),
        "b": ("from .a import C, f, g, h\n"
              "def use(args, kw):\n"
              "    f(0, z=3)\n"
              "    g(*args)\n"
              "    h(**kw)\n"
              "    C(1).m()\n"
              "    C.s(5)\n"),
    }
    assert unpassed_defaults(sources) == ["a.f(y)", "a.C.__init__(b)",
                                          "a.C.m(k)", "a.C.n.inner(q)"]
