"""Constructions inside G(F,F'): matchability, transport, line elements."""

import itertools
import random

import pytest

from treelocal.errors import (
    ConstraintUnsolvable,
    LengthMismatch,
    NotStabilizing,
    NotTwoTransitive,
    OutOfRange,
    TreeLocalError,
)
from treelocal.permgroups import is_2transitive_direct, pick_tau, trivial_group
from treelocal.autom import (
    Inverse,
    Loxodromic,
    WordTranslation,
    certify_membership,
    classify,
    eta,
)
from treelocal.medianqm import eval_colors
from treelocal.localaction import (
    GroupContext,
    boundary_escape_witness,
    build_line,
    colors_matchable,
    e2_obstruction,
    edge_transitivity_check,
    is_translate,
    is_translate_bruteforce,
    rotation_r,
    segment_orbit_census,
    segment_transport,
    translation_t,
    transport_into_line,
)
from treelocal.tree import (
    BASE,
    EventuallyPeriodic,
    LineSpec,
    Segment,
    Vertex,
    ball,
    distance,
    geodesic,
)

from conftest import (
    SlotwiseMatcher,
    equal_on_ball,
    pairwise_census,
    random_reduced_word,
    scan_transport_into_line,
    valid_contexts,
)


def color_sequences(d: int, n: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [s + (k,) for s in out for k in range(1, d + 1)
               if not s or s[-1] != k]
    return out


class TestContextValidation:
    def test_rejects_equal_groups(self):
        from treelocal.permgroups import symmetric_group
        with pytest.raises(TreeLocalError):
            GroupContext(3, symmetric_group(3), symmetric_group(3))

    def test_rejects_non_subgroup(self):
        from treelocal.permgroups import generate, parse_cycles
        F = generate([parse_cycles("(1 2)", 3)], 3)
        Fp = generate([parse_cycles("(1 2 3)", 3)], 3)
        with pytest.raises(TreeLocalError):
            GroupContext(3, F, Fp)

    def test_rejects_orbit_violation(self):
        from treelocal.permgroups import generate, parse_cycles, symmetric_group
        F = generate([parse_cycles("(1 2)", 3)], 3)
        with pytest.raises(TreeLocalError):
            GroupContext(3, F, symmetric_group(3))


class TestMatchability:
    def test_symmetric_relation(self, ctxd4):
        for a in color_sequences(4, 2):
            for b in color_sequences(4, 2):
                assert (colors_matchable(ctxd4, a, b)
                        == colors_matchable(ctxd4, b, a))

    def test_transitive_relation(self, ctxd4):
        seqs = color_sequences(4, 3)
        rng = random.Random(1)
        for _ in range(300):
            a, b, c = rng.choice(seqs), rng.choice(seqs), rng.choice(seqs)
            if colors_matchable(ctxd4, a, b) and colors_matchable(ctxd4, b, c):
                assert colors_matchable(ctxd4, a, c)

    def test_length_mismatch(self, ctx3):
        with pytest.raises(LengthMismatch):
            colors_matchable(ctx3, (1,), (1, 2))

    def test_2transitive_matches_everything(self, ctx3):
        for a in color_sequences(3, 3):
            for b in color_sequences(3, 3):
                assert colors_matchable(ctx3, a, b)

    def test_dihedral_distinguishes_step_patterns(self, ctxd4):
        # steps of size 1 and size 2 around the 4-cycle are different classes
        assert not colors_matchable(ctxd4, (1, 2), (1, 3))
        assert colors_matchable(ctxd4, (1, 2), (2, 3))


class TestOrbitalWords:
    @pytest.mark.parametrize("d", [3, 4])
    def test_equals_slotwise_definition(self, d):
        seqs = [s for n in range(1, 4) for s in color_sequences(d, n)]
        for ctx in valid_contexts(d):
            match = SlotwiseMatcher(ctx)
            for a in seqs:
                for b in seqs:
                    if len(a) == len(b):
                        assert colors_matchable(ctx, a, b) == match(a, b), (ctx, a, b)

    @pytest.mark.parametrize("d", [3, 4])
    def test_equals_bruteforce_up_to_length_2(self, d):
        seqs = [s for n in (1, 2) for s in color_sequences(d, n)]
        for ctx in valid_contexts(d):
            for a in seqs:
                for b in seqs:
                    if len(a) == len(b):
                        assert colors_matchable(ctx, a, b) == is_translate_bruteforce(
                            ctx, Segment(BASE, a), Segment(BASE, b)), (ctx, a, b)

    def test_one_orbital_iff_2transitive(self):
        for d in (3, 4):
            for ctx in valid_contexts(d):
                off_diagonal = {ctx.orbital[x, y]
                                for x in range(1, d + 1) for y in range(1, d + 1) if x != y}
                assert (len(off_diagonal) == 1) == is_2transitive_direct(ctx.Fp)

    @pytest.mark.parametrize("d", [3, 4])
    def test_two_transitive_field(self, d):
        for ctx in valid_contexts(d):
            assert ctx.two_transitive == is_2transitive_direct(ctx.Fp)

    def test_single_color_word_is_its_orbit(self, ctxd4):
        assert ctxd4.orbital_word((2,)) == ctxd4.orbital_word((4,))
        assert ctxd4.orbital_word((1, 2)) != ctxd4.orbital_word((1, 3))


class TestIsTranslate:
    def test_agrees_with_bruteforce_sampled(self, ctxd4):
        seqs = color_sequences(4, 2)
        for a in seqs:
            for b in seqs:
                s1, s2 = Segment(BASE, a), Segment(BASE, b)
                assert (is_translate(ctxd4, s1, s2)
                        == is_translate_bruteforce(ctxd4, s1, s2))

    def test_start_vertices_irrelevant(self, ctxd4):
        s1 = Segment(Vertex((2, 1)), (2, 1))
        s2 = Segment(BASE, (2, 1))
        assert is_translate(ctxd4, s1, s2)


class TestTransport:
    def test_segment_transport_maps_vertices(self, ctx3):
        s = Segment(Vertex((1, 2)), (1, 3))
        s2 = Segment(Vertex((3,)), (2, 1))
        g = segment_transport(ctx3, s, s2)
        assert g is not None
        for u, x in zip(s.vertices(), s2.vertices()):
            assert g.apply(u) == x

    def test_segment_transport_exact_when_possible(self, ctx3):
        s = Segment(BASE, (1, 2, 3))
        s2 = Segment(BASE, (2, 3, 1))
        res = segment_transport(ctx3, s, s2)
        assert res is not None
        assert certify_membership(res, ctx3.F, ctx3.Fp, 4).exact

    def test_segment_transport_none_when_unmatchable(self, ctxd4):
        res = segment_transport(ctxd4, Segment(BASE, (1, 2)),
                                Segment(BASE, (1, 3)))
        assert res is None

    def test_transport_into_line_even_parity(self, ctx3):
        L = build_line(ctx3)
        rng = random.Random(2)
        for _ in range(15):
            start = random_reduced_word(rng, 3, rng.randint(0, 3))
            colors = list(random_reduced_word(rng, 3, rng.randint(1, 4)))
            if start and colors and colors[0] == start[-1]:
                colors[0] = next(k for k in (1, 2, 3)
                                 if k != start[-1]
                                 and (len(colors) < 2 or k != colors[1]))
            s = Segment(start, tuple(colors))
            g = transport_into_line(ctx3, s, L)
            assert all(L.index_of(g.apply(v)) is not None
                       for v in s.vertices())
            assert distance(s.start, g.apply(s.start)) % 2 == 0

    @pytest.mark.parametrize("d", [3, 4])
    def test_transport_into_line_equals_radius_scan(self, d):
        rng = random.Random(d)
        for ctx in valid_contexts(d):
            if not is_2transitive_direct(ctx.Fp):
                continue
            L = build_line(ctx)
            segments = [Segment(start, colors)
                        for start in (BASE, Vertex((1,)), Vertex((2, 1)))
                        for n in range(3) for colors in color_sequences(d, n)]
            segments += [Segment(random_reduced_word(rng, d, rng.randint(0, 3)),
                                 tuple(random_reduced_word(rng, d, rng.randint(3, 5))))
                         for _ in range(6)]
            for s in segments:
                g = transport_into_line(ctx, s, L)
                j, oracle = scan_transport_into_line(ctx, s, L)
                assert j in (0, 1)
                assert g.apply(s.start) == L.vertex(j)
                assert equal_on_ball(g, oracle, 3)
                assert all(g.local(v) == oracle.local(v)
                           for v in ball(BASE, 3, d))

    def test_transport_into_line_needs_2transitivity(self, ctxd4):
        L = build_line(ctxd4)
        with pytest.raises(NotTwoTransitive):
            transport_into_line(ctxd4, Segment(BASE, (1,)), L)


class TestLine:
    def test_line_colors_for_rotation_group(self, ctx3):
        L = build_line(ctx3)
        assert pick_tau(ctx3.F)[1] == (1, 2, 3)
        # backward alternates 1,2; forward alternates 2,3
        assert [L.edge_color(i) for i in (-2, -1, 0, 1, 2, 3)] == \
            [1, 2, 1, 2, 3, 2]

    def test_translation_is_loxodromic_length2(self, ctx3):
        L = build_line(ctx3)
        t = translation_t(ctx3, L)
        for i in range(-6, 7):
            assert t.apply(L.vertex(i)) == L.vertex(i + 2)
        cls = classify(t)
        assert isinstance(cls, Loxodromic) and cls.length == 2
        assert eta(t) == 0

    def test_translation_certificate(self, ctx3):
        L = build_line(ctx3)
        t = translation_t(ctx3, L)
        cert = certify_membership(t, ctx3.F, ctx3.Fp, 8)
        assert cert.exact
        assert cert.in_Uprime_in_radius
        allowed = {L.vertex(0), L.vertex(-1)}
        assert set(cert.singular_in_radius) <= allowed

    def test_rotation_reflects_line(self, ctx3):
        L = build_line(ctx3)
        r = rotation_r(ctx3, L)
        for i in range(-8, 9):
            assert r.apply(L.vertex(i)) == L.vertex(-i)

    def test_rotation_involution_on_ball(self, ctx3):
        from treelocal.autom import Compose
        L = build_line(ctx3)
        r = rotation_r(ctx3, L)
        assert equal_on_ball(Compose(r, r), WordTranslation(Vertex(), 3), 4)

    def test_edge_transitivity(self, ctx3):
        L = build_line(ctx3)
        t = translation_t(ctx3, L)
        r = rotation_r(ctx3, L)
        assert edge_transitivity_check(L, [t, r], 8)
        # the translation alone only reaches every other edge
        assert not edge_transitivity_check(L, [t], 8)

    def test_edge_transitivity_needs_the_line_stabilized(self, ctx3):
        # v_0 = e, v_1 = 2 and v_-1 = 1, so 3 is off the line.  The
        # transport of [e, 3, 3.1] sends it to v_1; its inverse keeps
        # v_-8..v_0 on the line (by walks) and sends v_1 off it by lookup
        L = build_line(ctx3)
        t = translation_t(ctx3, L)
        g = transport_into_line(ctx3, geodesic(BASE, Vertex((3, 1))), L)
        for bad in (WordTranslation(Vertex((3,)), 3), Inverse(g)):
            with pytest.raises(NotStabilizing, match="off the line"):
                edge_transitivity_check(L, [t, bad], 8)

    @pytest.mark.parametrize("d", [3, 4])
    def test_sigma_periodic_past_seam(self, d):
        for ctx in valid_contexts(d):
            L = build_line(ctx)
            for g in (translation_t(ctx, L), rotation_r(ctx, L)):
                seam, period = g.seam, g.period
                for i in range(seam, 81):
                    assert g.sigma_at(i + period) == g.sigma_at(i)
                    assert g.sigma_at(-i - period) == g.sigma_at(-i)

    def test_singular_tail_past_preamble_not_exact(self, ctx4):
        # past index 30 the colors repeat 1, 2, 3, so the translation must
        # send (1, 2) to (3, 1) and (3, 1) to (2, 3), which no rotation of
        # the square does: two of every three line indices are singular
        L = LineSpec(BASE, EventuallyPeriodic((1, 2) * 15, (1, 2, 3)),
                     EventuallyPeriodic((), (2, 1)))
        t = translation_t(ctx4, L)
        assert t.seam == 34 and t.period == 6
        assert [t.sigma_at(i) in ctx4.F for i in range(31, 37)] == \
            [False, True, False] * 2
        assert not t.is_exact(ctx4.F)
        assert not certify_membership(t, ctx4.F, ctx4.Fp, 2).exact

    def test_regular_tails_past_preamble_exact(self, ctx4):
        # the seam at index 30 needs (4, 1) -> (2, 1), outside F, but both
        # tails alternate two colors, where the identity fits
        L = LineSpec(BASE, EventuallyPeriodic((3, 4) * 15, (1, 2)),
                     EventuallyPeriodic((), (2, 1)))
        t = translation_t(ctx4, L)
        assert t.sigma_at(30) not in ctx4.F
        assert t.is_exact(ctx4.F)

    def test_unsolvable_slot_past_preamble_refused(self, ctxd4):
        # past index 30 the forward colors alternate 1, 3: the rotation
        # would send the diagonal pair (1, 3) of the square onto an edge
        # pair of the backward side, which the dihedral group cannot
        L = LineSpec(BASE, EventuallyPeriodic((1, 2) * 15, (1, 3)),
                     EventuallyPeriodic((), (2, 1)))
        with pytest.raises(ConstraintUnsolvable):
            rotation_r(ctxd4, L)

    def test_line_elements_for_dihedral_pair(self, ctxd4):
        L = build_line(ctxd4)
        t = translation_t(ctxd4, L)
        r = rotation_r(ctxd4, L)
        cls = classify(t)
        assert isinstance(cls, Loxodromic) and cls.length == 2
        assert all(r.apply(L.vertex(i)) == L.vertex(-i) for i in range(-6, 7))


class TestColorRange:
    def test_color_outside_degree(self, ctx4):
        bad, good = (1, 7), (1, 2)
        with pytest.raises(OutOfRange):
            colors_matchable(ctx4, bad, good)
        with pytest.raises(OutOfRange):
            is_translate(ctx4, Segment(BASE, bad), Segment(BASE, good))
        for word, pattern in ((bad, good), (good, bad)):
            with pytest.raises(OutOfRange):
                eval_colors(ctx4, word, pattern)


class TestBoundaryEscape:
    @pytest.mark.parametrize("d", [3, 4])
    def test_witness_properties(self, d):
        g, radius = boundary_escape_witness(d)
        assert radius <= 12
        # color preserving: exact over the trivial local group
        assert g.is_exact(trivial_group(d))
        # the ray leaves itself under g
        ray = Segment(BASE, tuple((1, 2)[i % 2] for i in range(6))).vertices()
        on_ray = set(ray)
        assert any(g.apply(u) not in on_ray for u in ray)

    def test_rejects_small_degree(self):
        with pytest.raises(TreeLocalError):
            boundary_escape_witness(2)


class TestObstruction:
    def test_absent_iff_2transitive(self):
        for d in (3, 4):
            for ctx in valid_contexts(d):
                wit = e2_obstruction(ctx)
                assert (wit is None) == is_2transitive_direct(ctx.Fp)

    def test_dihedral_witness(self, ctxd4):
        wit = e2_obstruction(ctxd4)
        assert wit is not None
        assert wit.a == 1
        assert {wit.b1, wit.b2} == {2, 3}
        assert not wit.translate
        assert not is_translate_bruteforce(ctxd4, wit.gamma1, wit.gamma2)

    def test_witness_segments_share_final_color(self, ctxd4):
        wit = e2_obstruction(ctxd4)
        assert wit.gamma1.colors[-1] == wit.gamma2.colors[-1] == wit.a


class TestCensus:
    def test_single_class_under_2transitivity(self, ctx3, ctx4):
        for ctx in (ctx3, ctx4):
            for n in range(1, 5):
                assert len(segment_orbit_census(ctx, n)) == 1

    def test_dihedral_census_doubles(self, ctxd4):
        sizes = [len(segment_orbit_census(ctxd4, n)) for n in range(1, 5)]
        assert sizes == [1, 2, 4, 8]

    def test_representatives_pairwise_unmatchable(self, ctxd4):
        reps = segment_orbit_census(ctxd4, 3)
        for a, b in itertools.combinations(reps, 2):
            assert not colors_matchable(ctxd4, a, b)

    @pytest.mark.parametrize("d", [3, 4])
    def test_equals_pairwise_scan(self, d):
        for ctx in valid_contexts(d):
            match = SlotwiseMatcher(ctx)
            for n in range(1, 4):
                assert segment_orbit_census(ctx, n) == pairwise_census(match, n)

    def test_every_sequence_covered(self, ctxd4):
        reps = segment_orbit_census(ctxd4, 3)
        for seq in color_sequences(4, 3):
            assert any(colors_matchable(ctxd4, seq, r) for r in reps)
