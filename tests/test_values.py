"""Value semantics of the classes that the library or the tests compare,
hash or use as keys, and the output of the report records.

Each such class lists its fields as ``_fields`` and takes ==, hash and
repr from errors.Frozen, which reads them: equal fields give equal
objects with equal hashes (no hash where a field is a mutable context),
an object of another type with the same fields is not equal, a field
cannot be assigned or deleted (a GroupContext stays mutable), and repr
lists the fields by name.  A guard keeps every Frozen class on those
methods and its ``_fields`` in step with its slots.  The records that nothing
compares are named tuples, and json.dumps writes a tuple as a list, so the
reports' to_dict output is pinned as well.
"""

import hashlib
import importlib
import inspect
import json
import pkgutil
import types

import pytest

import treelocal
from treelocal.analysis import RunConfig, theorem1_branch, validate_inputs
from treelocal.autom import WordTranslation
from treelocal.chains import ComplexWindow
from treelocal.errors import Frozen
from treelocal.localaction import GroupContext
from treelocal.medianqm import IndependenceCertificate, MedianQM
from treelocal.permgroups import generate, parse_cycles
from treelocal.tree import (
    BASE,
    EdgeRef,
    EventuallyPeriodic,
    LineSpec,
    Segment,
    Vertex,
)

S12 = generate([parse_cycles("(1 2)", 3)], 3)
S12_REPR = ("PermGroup(degree=3, generators=(Permutation(2, 1, 3),), "
            "elements=(Permutation(1, 2, 3), Permutation(2, 1, 3)))")
_, CTX = validate_inputs(3, ["(1 2 3)"], ["(1 2 3)", "(1 2)"])
QMS = (MedianQM(Segment(BASE, (1, 2)), BASE, CTX),)
ELEMENTS = (WordTranslation(Vertex((1, 2)), 3),)


def line():
    return LineSpec(BASE, EventuallyPeriodic((), (2, 1)),
                    EventuallyPeriodic((), (1, 2)))


# id -> (build a fresh object, its fields in order, its repr, hashable);
# an object with a context among its fields has no hash, as before
CASES = {
    "EdgeRef": (lambda: EdgeRef(Vertex((1,)), 2),
                {"near": Vertex((1,)), "color": 2},
                "EdgeRef(near=Vertex('1'), color=2)", True),
    "Segment": (lambda: Segment(Vertex((1,)), [2, 3]),
                {"start": Vertex((1,)), "colors": (2, 3)},
                "Segment(start=Vertex('1'), colors=(2, 3))", True),
    "EventuallyPeriodic": (
        lambda: EventuallyPeriodic([5], [1, 2]),
        {"pre": (5,), "period": (1, 2)},
        "EventuallyPeriodic(pre=(5,), period=(1, 2))", True),
    "LineSpec": (
        line,
        {"anchor": BASE, "forward": EventuallyPeriodic((), (2, 1)),
         "backward": EventuallyPeriodic((), (1, 2))},
        "LineSpec(anchor=Vertex('e'), "
        "forward=EventuallyPeriodic(pre=(), period=(2, 1)), "
        "backward=EventuallyPeriodic(pre=(), period=(1, 2)))", True),
    "PermGroup": (lambda: generate([parse_cycles("(1 2)", 3)], 3),
                  {"degree": 3, "generators": S12.generators,
                   "elements": S12.elements},
                  S12_REPR, True),
    "GroupContext": (lambda: GroupContext(3, CTX.F, CTX.Fp),
                     {"d": 3, "F": CTX.F, "Fp": CTX.Fp},
                     f"GroupContext(d=3, F={CTX.F!r}, Fp={CTX.Fp!r})", False),
    "MedianQM": (lambda: MedianQM(Segment(BASE, (1, 2)), BASE, CTX),
                 {"s": Segment(BASE, (1, 2)), "v": BASE, "ctx": CTX},
                 "MedianQM(s=Segment(start=Vertex('e'), colors=(1, 2)), "
                 f"v=Vertex('e'), ctx={CTX!r})", False),
    "IndependenceCertificate": (
        lambda: IndependenceCertificate(QMS, ELEMENTS, ((2,),), 1),
        {"qms": QMS, "elements": ELEMENTS, "matrix": ((2,),), "rank": 1},
        f"IndependenceCertificate(qms={QMS!r}, elements={ELEMENTS!r}, "
        "matrix=((2,),), rank=1)", False),
    "ComplexWindow": (
        lambda: ComplexWindow((BASE, Vertex((1,))), 2),
        {"points": (BASE, Vertex((1,))), "max_degree": 2},
        "ComplexWindow(points=(Vertex('e'), Vertex('1')), max_degree=2)", True),
    "RunConfig": (
        lambda: RunConfig(window=5, seed=-3),
        {**RunConfig().to_dict(), "window": 5, "seed": -3},
        "RunConfig(census_n=4, sample_size=200, membership_radius=8, "
        "window=5, transport_samples=20, transport_max_len=5, qm_max_seg=5, "
        "qm_search_bound=8, qm_rank_max_seg=6, rank_target=3, limit_N=8, "
        "seed=-3)", True),
}


@pytest.mark.parametrize("name", CASES)
class TestValueSemantics:
    def test_equal_fields_equal_objects(self, name):
        build, fields, _, hashable = CASES[name]
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        assert [getattr(a, f) for f in fields] == list(fields.values())
        if hashable:
            assert hash(a) == hash(b) == hash(tuple(fields.values()))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)

    def test_other_type_with_same_fields_differs(self, name):
        build, fields, _, _ = CASES[name]
        a = build()
        assert a != types.SimpleNamespace(**fields)
        assert a != tuple(fields.values())

    def test_fields_cannot_be_assigned(self, name):
        build, fields, _, _ = CASES[name]
        a = build()
        field = next(iter(fields))
        if name == "GroupContext":
            a.d = 5  # mutable, as before
            assert a != build()
            return
        with pytest.raises(AttributeError, match=field):
            setattr(a, field, fields[field])
        with pytest.raises(AttributeError, match=field):
            delattr(a, field)
        assert a == build()

    def test_repr(self, name):
        build, _, text, _ = CASES[name]
        assert repr(build()) == text


def frozen_classes(cls=Frozen):
    """Every subclass of cls, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from frozen_classes(sub)


for _module in pkgutil.iter_modules(treelocal.__path__):
    importlib.import_module(f"treelocal.{_module.name}")
FROZEN = sorted((c for c in frozen_classes()
                 if c.__module__.startswith("treelocal.")),
                key=lambda c: c.__name__)


def test_every_frozen_class_has_a_case():
    assert {c.__name__ for c in FROZEN} == set(CASES) - {"GroupContext"}


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_methods_are_written_once(cls):
    # the class takes ==, hash and repr from Frozen, so a field left out
    # of _fields would be left out of all three at once: _fields must
    # list the public slots, or for an unslotted class the parameters of
    # __init__, in order
    for name in ("__eq__", "__hash__", "__repr__"):
        assert name not in vars(cls), name
    if "__slots__" in vars(cls):
        public = tuple(n for n in cls.__slots__ if not n.startswith("_"))
    else:
        public = tuple(inspect.signature(cls.__init__).parameters)[1:]
    assert cls._fields == public


def test_permgroup_memo_is_not_a_field():
    G = generate([parse_cycles("(1 2)", 3)], 3)
    assert G.least((1, 2)) is not None
    assert G == S12 and hash(G) == hash(S12) and repr(G) == S12_REPR


def test_segment_walk_is_not_a_field():
    s, t = Segment(BASE, (1, 2)), Segment(BASE, (1, 2))
    assert s.vertices() == (BASE, Vertex((1,)), Vertex((1, 2)))
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)


def test_validation_report_dict():
    report, _ = validate_inputs(3, ["(1 2 3)"], ["(1 2 3)", "(1 2)"])
    assert json.dumps(report.to_dict()) == (
        '{"d": 3, "order_F": 3, "order_Fprime": 6, "orbits_F": [[1, 2, 3]], '
        '"orbits_Fprime": [[1, 2, 3]], "flags": {"degree_ok": true, '
        '"is_subgroup": true, "proper_inclusion": true, '
        '"orbits_preserved": true, "F_transitive": true, '
        '"Fprime_transitive": true, "Fprime_2transitive": true}, '
        '"valid": true}')


FAST = RunConfig(census_n=2, sample_size=10, membership_radius=4, window=4,
                 transport_samples=3, transport_max_len=3, qm_max_seg=2,
                 qm_search_bound=4, qm_rank_max_seg=2, rank_target=1)


# (d, F, F', config) -> sha256 prefix and length of json.dumps(to_dict()),
# as the reports read when their records were dataclasses
@pytest.mark.parametrize("d, F, Fp, cfg, digest, size", [
    (3, ["(1 2 3)"], ["(1 2 3)", "(1 2)"], FAST, "12c7de5cdb9f31ae", 934),
    (3, ["(1 2 3)"], ["(1 2 3)", "(1 2)"], RunConfig(),
     "fe3c3cc9e22cf947", 946),
    (4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 3)"], FAST, "a18a42f663b56673", 791),
    (4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 3)"], RunConfig(),
     "9e2c4fde073cf953", 1020),
], ids=["d3-fast", "d3-default", "dihedral-fast", "dihedral-default"])
def test_branch_report_dict(d, F, Fp, cfg, digest, size):
    _, ctx = validate_inputs(d, F, Fp)
    out = theorem1_branch(ctx, cfg).to_dict()
    # no tuple (named or not) hides in the output: JSON would list it
    assert json.loads(json.dumps(out)) == out
    text = json.dumps(out)
    assert (hashlib.sha256(text.encode()).hexdigest()[:16], len(text)) == (
        digest, size)
