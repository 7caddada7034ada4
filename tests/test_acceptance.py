"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from treelocal.analysis import theorem1_branch, validate_inputs
from treelocal.autom import (
    Compose,
    Inverse,
    Loxodromic,
    WordTranslation,
    classify,
    power,
)
from treelocal.chains import (
    AlternatingChain,
    ComplexWindow,
    aligned_closure_check,
    boundary,
    exactness_check,
    random_chain,
)
from treelocal.cli import EXIT_OK, main
from treelocal.localaction import (
    GroupContext,
    boundary_escape_witness,
    is_translate,
    is_translate_bruteforce,
)
from treelocal.medianqm import (
    MedianQM,
    cyclic_reduction,
    eval_qm,
    find_nonvanishing_qm,
    homogenize,
)
from treelocal.permgroups import (
    all_subgroups,
    is_2transitive_direct,
    is_2transitive_stab,
    orbits,
    preserves_orbits,
    stabilizer,
    trivial_group,
)
from treelocal.tree import (
    BASE,
    Segment,
    Vertex,
    ball,
    is_aligned,
    is_aligned_bruteforce,
    neighbor,
)

from conftest import random_composite, random_reduced_word


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _color_sequences(d: int, n: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [s + (k,) for s in out for k in range(1, d + 1)
               if not s or s[-1] != k]
    return out


def _valid_contexts(d: int) -> list[GroupContext]:
    subs = all_subgroups(d)
    return [GroupContext(d, F, Fp)
            for F in subs for Fp in subs
            if F.is_subgroup_of(Fp) and F.order < Fp.order
            and preserves_orbits(F, Fp)]


def test_criterion_01_transitivity_predicates_agree():
    ok = all(is_2transitive_direct(G) == is_2transitive_stab(G)
             for d in (3, 4) for G in all_subgroups(d))
    _report(1, "2-transitivity predicate equivalence", ok)


def test_criterion_02_cocycle_suite():
    rng = random.Random(20)
    violations = 0
    for d in (3, 4, 5):
        verts = list(ball(BASE, 5, d))
        for _ in range(334):
            g = random_composite(rng, d, rng.randint(1, 4))
            h = random_composite(rng, d, rng.randint(1, 4))
            gh = Compose(g, h)
            for v in rng.sample(verts, 8):
                if gh.local(v) != g.local(h.apply(v)).after(h.local(v)):
                    violations += 1
                sv = gh.local(v)
                for k in range(1, d + 1):
                    vk = neighbor(v, k)
                    if gh.apply(vk) != neighbor(gh.apply(v), sv(k)):
                        violations += 1
                    if sv(k) != gh.local(vk)(k):
                        violations += 1
    _report(2, "cocycle and edge compatibility", violations == 0)


def test_criterion_03_branch1_pipeline():
    ok = True
    for d, f_gens, fp_gens in (
            (3, ["(1 2 3)"], ["(1 2 3)", "(1 2)"]),
            (4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 2)"])):
        _, ctx = validate_inputs(d, f_gens, fp_gens)
        report = theorem1_branch(ctx)
        ev = report.evidence
        ok = ok and report.branch == "BoundedlyAcyclic" and report.complete
        ok = ok and ev["translation"]["class"] == "Loxodromic"
        ok = ok and ev["translation"]["length"] == 2
        ok = ok and ev["translation"]["certificate_exact"]
        ok = ok and ev["rotation"]["reflects_window"]
        ok = ok and ev["edge_transitivity"]["pass"]
        ok = ok and ev["segment_census"]["sizes"] == [1, 1, 1, 1]
        ok = ok and ev["qm_vanishing"]["zero"] == 200
        ok = ok and ev["even_transports"]["ok"] == 20
    _report(3, "2-transitive branch pipeline", ok)


@pytest.fixture(scope="module")
def dihedral_ctx():
    _, ctx = validate_inputs(4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 3)"])
    assert ctx is not None
    return ctx


def test_criterion_04_branch2_pipeline(dihedral_ctx):
    ctx = dihedral_ctx
    report = theorem1_branch(ctx)
    ev = report.evidence
    ok = report.branch == "InfiniteH2" and report.complete
    # obstruction at color 1 with stabilizer orbits {2,4} and {3}
    st = stabilizer(ctx.Fp, 1)
    ok = ok and sorted(b for b in orbits(st) if b != (1,)) == [(2, 4), (3,)]
    ok = ok and ev["obstruction"]["pass"]
    ok = ok and not ev["obstruction"]["translate"]
    ok = ok and not ev["obstruction"]["bruteforce_translate"]
    ok = ok and ev["nonvanishing_qm"]["value"] != 0
    ok = ok and ev["independence"]["rank"] >= 3
    # homogenize equals the limit terms n = 6..8 exactly
    ok = ok and ev["limit_agreement"]["pass"]
    h = ev["limit_agreement"]["homogenize"]
    tail = [Fraction(x) for x in ev["limit_agreement"]["limit_sequence"][5:8]]
    ok = ok and tail == [Fraction(h)] * 3
    _report(4, "non-2-transitive branch pipeline", ok)


@pytest.mark.xfail(
    strict=True,
    reason="length <= 4 patterns are reversal-balanced on every translation "
           "axis for this pair, so the small-scale search cannot succeed")
def test_criterion_04b_nonvanishing_at_smallest_scale(dihedral_ctx):
    found = find_nonvanishing_qm(dihedral_ctx, max_seg=4, search_bound=6)
    assert found is not None


def test_criterion_05_translate_oracle_equivalence():
    ok = True
    for d in (3, 4):
        seqs = {n: _color_sequences(d, n) for n in (1, 2, 3)}
        for ctx in _valid_contexts(d):
            for n in (1, 2, 3):
                for a in seqs[n]:
                    for b in seqs[n]:
                        s1, s2 = Segment(BASE, a), Segment(BASE, b)
                        if (is_translate(ctx, s1, s2)
                                != is_translate_bruteforce(ctx, s1, s2)):
                            ok = False
    _report(5, "translate test against exhaustive oracle", ok)


def test_criterion_06_chain_complex():
    rng = random.Random(21)
    points = list(ball(BASE, 2, 3))[:8]
    w6 = ComplexWindow(tuple(points[:6]), 3)
    ok = True
    for _ in range(100):
        c = random_chain(w6, rng.randint(2, 3), rng)
        dd = boundary(boundary(c))
        ok = ok and (dd.is_zero() if isinstance(dd, AlternatingChain)
                     else dd == 0)
    for size in (2, 3, 4, 5):
        for pts in itertools.combinations(points, size):
            ok = ok and exactness_check(ComplexWindow(pts, 3))
    for n in range(4):
        ok = ok and aligned_closure_check(w6, n)
    _report(6, "chain complex exactness and closure", ok)


def test_criterion_07_alignment_oracle():
    points = list(ball(BASE, 2, 3))
    ok = True
    for size in (1, 2, 3, 4):
        for tup in itertools.combinations(points, size):
            if is_aligned(tup) != is_aligned_bruteforce(tup):
                ok = False
    _report(7, "alignment test against brute force", ok)


def test_criterion_08_boundary_escape():
    g, radius = boundary_escape_witness(3)
    ok = radius <= 12 and g.is_exact(trivial_group(3))
    ray = Segment(BASE, tuple((1, 2)[i % 2] for i in range(6))).vertices()
    on_ray = set(ray)
    ok = ok and any(g.apply(u) not in on_ray for u in ray)
    _report(8, "boundary escape witness", ok)


def test_criterion_09_quasimorphism_algebra(dihedral_ctx):
    ctx = dihedral_ctx
    rng = random.Random(22)
    ok = True
    sampled = 0
    while sampled < 100:
        w = tuple(random_reduced_word(rng, 4, rng.randint(2, 6)))
        if len(cyclic_reduction(w)) < 2:
            continue
        g = WordTranslation(Vertex(w), 4)
        if not isinstance(classify(g), Loxodromic):
            continue
        sampled += 1
        s = Segment(BASE, tuple(random_reduced_word(rng, 4,
                                                    rng.randint(1, 5))))
        f = MedianQM(s, BASE, ctx)
        if eval_qm(f, Inverse(g)).value != -eval_qm(f, g).value:
            ok = False
        h = homogenize(f, g)
        for n in range(1, 5):
            if homogenize(f, power(g, n)) != n * h:
                ok = False
    _report(9, "quasimorphism algebra on sampled loxodromics", ok)


def test_criterion_10_determinism(tmp_path, capsys):
    spec = tmp_path / "spec3.json"
    spec.write_text(json.dumps(
        {"d": 3, "F": ["(1 2 3)"], "Fprime": ["(1 2 3)", "(1 2)"]}))
    outputs = []
    codes = []
    for _ in range(2):
        codes.append(main(["branch", str(spec), "--seed", "7"]))
        outputs.append(capsys.readouterr().out)
    ok = codes == [EXIT_OK, EXIT_OK] and outputs[0] == outputs[1]
    _report(10, "branch command determinism", ok)
