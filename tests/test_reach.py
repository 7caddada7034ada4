"""Every public module-level function and class of treelocal is reached by
the library itself: another module reads it, or its own module reads it
outside its definition.  Every public method that is not a dunder is read
as an attribute outside its own definition.  Names kept for other readers
are listed below."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treelocal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# name -> why it stays although no module of treelocal reads it
EXEMPT = {
    "tree.is_aligned": "the acceptance tests judge aligned tuples with it",
    "tree.is_aligned_bruteforce": "the acceptance tests' oracle for is_aligned",
    "permgroups.is_2transitive_stab": "the acceptance tests' second 2-transitivity judge",
    "chains.random_chain": "the acceptance tests draw their chains with it",
    "permgroups.all_subgroups": "the benchmark and the tests enumerate pairs with it",
    "localaction.segment_transport": "the constructive form of is_translate; tests check its elements",
}

# module.Class.method -> why it stays although no module of treelocal reads it
METHOD_EXEMPT = {
    "chains.AlternatingChain.is_zero": "the acceptance tests judge chains with it",
    "cli._Parser.error": "argparse calls it on a usage error",
}


def unreached(sources: dict[str, str]) -> list[str]:
    """The public top-level functions and classes, as module.name, that no
    statement of another module reads and no other top-level statement of
    their own module reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = {name: [{n.id for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                    for stmt in tree.body]
             for name, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for i, node in enumerate(tree.body):
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if not any(node.name in names
                       for other, stmts in reads.items()
                       for j, names in enumerate(stmts)
                       if other != module or j != i):
                out.append(f"{module}.{node.name}")
    return out


def unread_methods(sources: dict[str, str]) -> list[str]:
    """The public methods of the top-level classes, as module.Class.name,
    whose name no attribute read outside their own definition reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or node.name.startswith("_")):
                    continue
                own = set(map(id, ast.walk(node)))
                if not any(n.attr == node.name and id(n) not in own for n in reads):
                    out.append(f"{module}.{cls.name}.{node.name}")
    return out


def test_modules_found():
    assert len(MODULES) >= 10


def test_every_public_name_is_reached():
    found = set(unreached({p.stem: p.read_text() for p in MODULES}))
    assert sorted(found - EXEMPT.keys()) == []
    # an exempt name that the library now reads needs no entry
    assert sorted(EXEMPT.keys() - found) == []


def test_detector_flags_unreached_names():
    sources = {
        "a": ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def _private():\n    return 0\n"
              "class Kept:\n    pass\n"
              "def caller():\n    return Kept()\n"),
        "b": ("from .a import used\n"
              "def f():\n    return used()\n"
              "def g(x):\n    return x.f\n"),
    }
    assert unreached(sources) == ["a.recursive", "a.caller", "b.f", "b.g"]


def test_every_public_method_is_read():
    found = set(unread_methods({p.stem: p.read_text() for p in MODULES}))
    assert sorted(found - METHOD_EXEMPT.keys()) == []
    assert sorted(METHOD_EXEMPT.keys() - found) == []


def test_detector_flags_unread_methods():
    sources = {
        "a": ("class P:\n"
              "    def used(self):\n        return self.helper()\n"
              "    def helper(self):\n        return 1\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "    @property\n"
              "    def size(self):\n        return 0\n"
              "    def _private(self):\n        return 0\n"
              "    def __len__(self):\n        return 0\n"),
        "b": ("def f(p):\n    return p.used, p.size\n"
              "def g(p):\n    p.store = 1\n"
              "class Q:\n"
              "    def store(self):\n        return 0\n"),
    }
    assert unread_methods(sources) == ["a.P.recursive", "b.Q.store"]
