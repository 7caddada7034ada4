"""Tree automorphisms: portraits, composition, classification, membership."""

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from treelocal import autom, permgroups
from treelocal.errors import (
    InconsistentPortrait,
    OrbitViolation,
    RadiusExhausted,
    SizeLimitExceeded,
    TreeLocalError,
)
from treelocal.permgroups import (
    PermGroup,
    Permutation,
    find_mapping,
    generate,
    parse_cycles,
    symmetric_group,
    trivial_group,
)
from treelocal.autom import (
    Compose,
    Diagonal,
    Elliptic,
    FilledPortrait,
    InversionMove,
    Inverse,
    Loxodromic,
    LinePortrait,
    Patched,
    SegmentPortrait,
    SubtreeDiagonal,
    WordTranslation,
    certify_membership,
    classify,
    eta,
    power,
)
from treelocal.analysis import validate_inputs
from treelocal.localaction import (
    build_line,
    rotation_r,
    segment_transport,
    translation_t,
    transport_into_line,
)
from treelocal.serialize import decode_element
from treelocal.tree import (
    BASE,
    EventuallyPeriodic,
    LineSpec,
    Segment,
    Vertex,
    ball,
    ball_size,
    distance,
    geodesic,
    neighbor,
    reduce_word,
)

from conftest import (
    conjugate_support_shift_check,
    equal_on_ball,
    moved_set,
    random_composite,
    random_reduced_word,
    valid_contexts,
)


class TestBasicElements:
    def test_identity(self):
        g = WordTranslation(Vertex(), 3)
        assert g.apply(Vertex((1, 2))) == Vertex((1, 2))
        assert g.local(BASE).is_identity()

    def test_word_translation_regular_action(self):
        g = WordTranslation(Vertex((1, 2)), 3)
        assert g.apply(BASE) == Vertex((1, 2))
        # left multiplication reduces: (1 2) * (2 3) = (1 3)
        assert g.apply(Vertex((2, 3))) == Vertex((1, 3))
        assert g.local(Vertex((3, 1))).is_identity()

    def test_diagonal(self):
        g = Diagonal(parse_cycles("(1 2)", 3))
        assert g.apply(Vertex((1, 3, 2))) == Vertex((2, 3, 1))
        assert g.local(Vertex((3,))) == parse_cycles("(1 2)", 3)

    def test_subtree_diagonal_fixes_outside(self):
        g = SubtreeDiagonal(Vertex((3,)), parse_cycles("(1 2)", 3))
        assert g.apply(Vertex((1, 2))) == Vertex((1, 2))
        assert g.apply(Vertex((3, 1))) == Vertex((3, 2))
        assert g.local(BASE).is_identity()

    def test_subtree_diagonal_needs_fixed_entry(self):
        with pytest.raises(TreeLocalError):
            SubtreeDiagonal(Vertex((3,)), parse_cycles("(1 3)", 3))

    def test_patched_noop_override_consistent(self):
        # an override matching the base portrait evaluates everywhere
        base = Diagonal(parse_cycles("(1 2)", 3))
        g = Patched(base, {Vertex((3,)): parse_cycles("(1 2)", 3)})
        assert g.apply(Vertex((3, 1))) == Vertex((3, 2))
        assert g.apply(Vertex((1, 3))) == Vertex((2, 3))

    def test_patched_inconsistency_surfaces_lazily(self):
        from treelocal.errors import InconsistentPortrait
        g = Patched(WordTranslation(Vertex(), 3), {Vertex((3,)): parse_cycles("(1 2)", 3)})
        # paths avoiding the patched edge still evaluate
        assert g.apply(Vertex((2, 1))) == Vertex((2, 1))
        # walking through the offending edge raises instead of guessing
        with pytest.raises(InconsistentPortrait):
            g.apply(Vertex((3, 1)))

    def test_segment_portrait_refuses_nonadjacent_images(self):
        # the images of the adjacent vertices e and 1 are two steps apart;
        # the check that sigma carries the edge color from one image to the
        # next refuses that
        from treelocal.errors import InconsistentPortrait
        with pytest.raises(InconsistentPortrait):
            SegmentPortrait([BASE, Vertex((1,))], [BASE, Vertex((1, 2))],
                            [Permutation.identity(3)] * 2, symmetric_group(3))


def two_pass_fault(vertices, images, sigmas):
    """The checks of a segment portrait in the order they were written
    first, an oracle for its one pass per concern: (class, message) of
    the first fault, or None.  Every consecutive pair is tested for
    adjacency, and every vertex for a walk that comes back to where it
    was, and then each edge, in order, for sigma agreement on its color
    and for the image step."""
    if not len(vertices) == len(images) == len(sigmas):
        return TreeLocalError, "skeleton arrays must have equal lengths"
    if not vertices:
        return TreeLocalError, "skeleton must be nonempty"
    for i, (u, w) in enumerate(zip(vertices, vertices[1:])):
        if distance(u, w) != 1:
            return TreeLocalError, "skeleton vertices must be consecutive"
        if i and vertices[i - 1] == w:
            return TreeLocalError, f"skeleton backtracks at {u}"
    for i, (u, w) in enumerate(zip(vertices, vertices[1:])):
        k = (w if len(w) > len(u) else u)[-1]
        if sigmas[i](k) != sigmas[i + 1](k):
            return (InconsistentPortrait,
                    f"sigma at {u} and {w} disagree on edge color {k}")
        if neighbor(images[i], sigmas[i](k)) != images[i + 1]:
            return (InconsistentPortrait,
                    f"images of {u}, {w} are not related by sigma on color {k}")
    return None


class TestSegmentPortraitChecks:
    """SegmentPortrait checks adjacency and backtracking in one pass,
    taking each edge's color, and sigma agreement and image steps in a
    second; the errors, their order and their messages are those of the
    oracle two_pass_fault."""

    ID = Permutation.identity(3)
    SWAP = parse_cycles("(1 2)", 3)
    CASES = [
        # vertices, images, sigmas, (class, message)
        ([BASE, Vertex((1, 2))], [BASE, Vertex((1, 2))], [ID] * 2,
         (TreeLocalError, "skeleton vertices must be consecutive")),
        ([Vertex((1,)), Vertex((1,))], [BASE, BASE], [ID] * 2,
         (TreeLocalError, "skeleton vertices must be consecutive")),
        ([Vertex((1,)), Vertex((2,))], [Vertex((1,)), Vertex((2,))], [ID] * 2,
         (TreeLocalError, "skeleton vertices must be consecutive")),
        ([BASE, BASE], [BASE, BASE], [ID] * 2,
         (TreeLocalError, "skeleton vertices must be consecutive")),
        ([BASE, Vertex((1,))], [BASE, Vertex((1,))], [ID, SWAP],
         (InconsistentPortrait, "sigma at e and 1 disagree on edge color 1")),
        ([Vertex((2, 1)), Vertex((2,))], [BASE, Vertex((1,))], [ID, SWAP],
         (InconsistentPortrait, "sigma at 2.1 and 2 disagree on edge color 1")),
        ([BASE, Vertex((1,))], [BASE, Vertex((2,))], [ID] * 2,
         (InconsistentPortrait,
          "images of e, 1 are not related by sigma on color 1")),
        ([Vertex((1, 2)), Vertex((1,)), BASE], [Vertex((1, 2)), Vertex((1,)),
                                                Vertex((1, 3))], [ID] * 3,
         (InconsistentPortrait,
          "images of 1, e are not related by sigma on color 1")),
        # a sigma fault on edge 0 and a gap at edge 1: adjacency comes first
        ([BASE, Vertex((1,)), Vertex((1, 2, 3))], [BASE] * 3, [ID, SWAP, ID],
         (TreeLocalError, "skeleton vertices must be consecutive")),
        ([BASE], [BASE], [ID, ID],
         (TreeLocalError, "skeleton arrays must have equal lengths")),
        ([], [], [], (TreeLocalError, "skeleton must be nonempty")),
        # SWAP and (1 2 3) both send 1 to 2, so each edge of e, 1, e passes
        # the sigma and image checks; the walk visits e twice, with two
        # different sigmas, and is refused before either is read
        ([BASE, Vertex((1,)), BASE], [BASE, Vertex((2,)), BASE],
         [SWAP, SWAP, Permutation((2, 3, 1))],
         (TreeLocalError, "skeleton backtracks at 1")),
    ]

    @pytest.mark.parametrize("vertices, images, sigmas, fault", CASES)
    def test_fault_class_and_message(self, vertices, images, sigmas, fault):
        assert two_pass_fault(vertices, images, sigmas) == fault
        with pytest.raises(TreeLocalError) as caught:
            SegmentPortrait(vertices, images, sigmas, symmetric_group(3))
        assert (type(caught.value), str(caught.value)) == fault

    def test_random_skeletons_fail_as_the_oracle(self):
        # walks with a random jump now and then, images that step by
        # sigma on the edge color but now and then stay put
        rng = random.Random(0)
        sym = symmetric_group(3).elements
        faults = set()
        for _ in range(3000):
            verts = [random_reduced_word(rng, 3, rng.randint(0, 2))]
            for _ in range(rng.randint(0, 3)):
                verts.append(random_reduced_word(rng, 3, rng.randint(0, 3))
                             if rng.random() < 0.1
                             else neighbor(verts[-1], rng.randint(1, 3)))
            sigmas = [rng.choice(sym) for _ in verts]
            images = [random_reduced_word(rng, 3, 1)]
            for u, w, sigma in zip(verts, verts[1:], sigmas):
                longer = w if len(w) > len(u) else u
                step = neighbor(images[-1], sigma(longer[-1] if longer else 1))
                images.append(step if rng.random() < 0.9 else images[-1])
            fault = two_pass_fault(verts, images, sigmas)
            faults.add(fault and fault[0])
            if fault is None:
                g = SegmentPortrait(verts, images, sigmas, symmetric_group(3))
                assert g.skeleton == tuple(verts)
                continue
            with pytest.raises(TreeLocalError) as caught:
                SegmentPortrait(verts, images, sigmas, symmetric_group(3))
            assert (type(caught.value), str(caught.value)) == fault
        assert faults == {None, TreeLocalError, InconsistentPortrait}


class TestCompositionAlgebra:
    def test_inverse_cancels_on_ball(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_composite(rng, 3, 3)
            gi = Inverse(g)
            assert equal_on_ball(Compose(g, gi), WordTranslation(Vertex(), 3), 4)
            assert equal_on_ball(Compose(gi, g), WordTranslation(Vertex(), 3), 4)

    def test_power_matches_repeated_compose(self):
        g = WordTranslation(Vertex((1, 2, 3)), 4)
        assert equal_on_ball(power(g, 3),
                             Compose(g, Compose(g, g)), 4)
        assert equal_on_ball(power(g, -2),
                             Inverse(Compose(g, g)), 4)

    def test_distance_preserved(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_composite(rng, 4, 3)
            u = random_reduced_word(rng, 4, rng.randint(0, 5))
            v = random_reduced_word(rng, 4, rng.randint(0, 5))
            assert distance(g.apply(u), g.apply(v)) == distance(u, v)


class TestLocalCocycle:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_cocycle_and_edge_compatibility(self, d):
        rng = random.Random(d)
        verts = list(ball(BASE, 4, d))
        for _ in range(60):
            g = random_composite(rng, d, rng.randint(1, 3))
            h = random_composite(rng, d, rng.randint(1, 3))
            gh = Compose(g, h)
            for v in rng.sample(verts, 6):
                assert gh.local(v) == g.local(h.apply(v)).after(h.local(v))
                sv = gh.local(v)
                for k in range(1, d + 1):
                    vk = neighbor(v, k)
                    assert gh.apply(vk) == neighbor(gh.apply(v), sv(k))
                    assert sv(k) == gh.local(vk)(k)

    def test_inverse_cocycle(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_composite(rng, 3, 3)
            gi = Inverse(g)
            v = random_reduced_word(rng, 3, rng.randint(0, 4))
            assert gi.local(g.apply(v)) == g.local(v).inv()


class TestClassify:
    def test_identity_elliptic(self):
        cls = classify(WordTranslation(Vertex(), 3))
        assert isinstance(cls, Elliptic)
        assert cls.fixed == BASE

    def test_diagonal_elliptic(self):
        cls = classify(Diagonal(parse_cycles("(1 2)", 3)))
        assert isinstance(cls, Elliptic)

    def test_single_letter_inversion(self):
        cls = classify(WordTranslation(Vertex((1,)), 3))
        assert isinstance(cls, InversionMove)
        assert cls.edge.near == BASE
        assert cls.edge.color == 1

    def test_word_loxodromic(self):
        cls = classify(WordTranslation(Vertex((1, 2)), 3))
        assert isinstance(cls, Loxodromic)
        assert cls.length == 2

    def test_conjugated_word_loxodromic(self):
        # conjugate of a translation is a translation of the same length
        a = WordTranslation(Vertex((3, 1, 3)), 4)
        t = WordTranslation(Vertex((1, 2)), 4)
        g = Compose(a, Compose(t, Inverse(a)))
        cls = classify(g)
        assert isinstance(cls, Loxodromic)
        assert cls.length == 2

    def test_step_bound_named_in_error(self, monkeypatch):
        # e lies off the axis, so the first step improves; no step is allowed
        a = WordTranslation(Vertex((3, 1, 3)), 4)
        g = Compose(a, Compose(WordTranslation(Vertex((1, 2)), 4), Inverse(a)))
        monkeypatch.setattr(autom, "CLASSIFY_STEP_BOUND", (0, 0))
        with pytest.raises(RadiusExhausted,
                           match=r"0 steps \(CLASSIFY_STEP_BOUND: 0 \+ 0 \* "
                                 r"displacement 8\)"):
            classify(g)

    def test_length_against_minimal_displacement(self):
        rng = random.Random(17)
        verts = list(ball(BASE, 4, 3))
        for _ in range(15):
            w = random_reduced_word(rng, 3, rng.randint(2, 4))
            g = WordTranslation(w, 3)
            cls = classify(g)
            min_disp = min(distance(v, g.apply(v)) for v in verts)
            if isinstance(cls, Loxodromic):
                assert cls.length == min_disp
            else:
                assert isinstance(cls, InversionMove)
                assert min_disp == 1


class TestEta:
    def test_parity_of_translations(self):
        assert eta(WordTranslation(Vertex((1, 2)), 3)) == 0
        assert eta(WordTranslation(Vertex((1, 2, 1)), 3)) == 1
        assert eta(WordTranslation(Vertex(), 3)) == 0

    def test_homomorphism_property(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_composite(rng, 3, 3)
            h = random_composite(rng, 3, 3)
            assert eta(Compose(g, h)) == (eta(g) + eta(h)) % 2

    def test_vertex_independence(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_composite(rng, 4, 3)
            v = random_reduced_word(rng, 4, rng.randint(0, 4))
            assert distance(v, g.apply(v)) % 2 == eta(g)


class TestMembership:
    def test_word_translation_exact(self):
        g = WordTranslation(Vertex((1, 2)), 3)
        F = trivial_group(3)
        cert = certify_membership(g, F, symmetric_group(3), 4)
        assert cert.exact
        assert cert.in_Uprime_in_radius
        assert cert.singular_in_radius == ()

    def test_diagonal_membership(self):
        pi = parse_cycles("(1 2 3)", 3)
        F = generate([pi], 3)
        g = Diagonal(pi)
        assert certify_membership(g, F, symmetric_group(3), 3).exact
        assert not certify_membership(
            g, trivial_group(3), symmetric_group(3), 3).exact

    def test_singular_support_of_patch(self):
        F = generate([parse_cycles("(1 2 3)", 3)], 3)
        g = Patched(WordTranslation(Vertex(), 3), {Vertex((3,)): parse_cycles("(1 2)", 3)})
        cert = certify_membership(g, F, symmetric_group(3), 3)
        # the singular set is finite by construction, so membership in G(F)
        # is certified exactly even though one local permutation leaves F
        assert cert.exact
        assert cert.in_Uprime_in_radius
        assert cert.singular_in_radius == (Vertex((3,)),)

    def test_singular_support_monotone_in_radius(self):
        F = generate([parse_cycles("(1 2 3)", 3)], 3)
        g = Patched(WordTranslation(Vertex(), 3), {Vertex((1, 2)): parse_cycles("(2 3)", 3)})
        S3 = symmetric_group(3)
        small = set(certify_membership(g, F, S3, 1).singular_in_radius)
        large = set(certify_membership(g, F, S3, 4).singular_in_radius)
        assert small <= large
        assert Vertex((1, 2)) in large


class TestMovedSets:
    def test_moved_set_of_subtree_action(self):
        g = SubtreeDiagonal(Vertex((3,)), parse_cycles("(1 2)", 3))
        window = list(ball(BASE, 3, 3))
        moved = moved_set(g, window)
        assert all(v[:1] == (3,) for v in moved)

    def test_conjugate_support_shift(self):
        rng = random.Random(31)
        window = list(ball(BASE, 3, 3))
        b = SubtreeDiagonal(Vertex((3,)), parse_cycles("(1 2)", 3))
        for _ in range(10):
            a = random_composite(rng, 3, 2)
            assert conjugate_support_shift_check(a, b, window)


class TestDeepPowers:
    def test_power_of_500_does_not_recurse(self):
        g = power(WordTranslation(Vertex((1, 2)), 3), 500)
        assert g.apply(BASE) == Vertex((1, 2) * 500)
        assert power(WordTranslation(Vertex((1, 2)), 3), -200).apply(BASE) \
            == Vertex((2, 1) * 200)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-150, 150), st.lists(st.integers(1, 4), max_size=4))
    def test_word_translation_closed_form(self, n, letters):
        w = reduce_word(letters)
        word = tuple(w) if n >= 0 else tuple(reversed(w))
        g = power(WordTranslation(w, 4), n)
        for v in ball(BASE, 1, 4):
            assert g.apply(v) == reduce_word(word * abs(n) + tuple(v))

    @staticmethod
    def bounded_elements(d: int):
        """Elements with bounded orbits, so that large powers stay cheap."""
        return [
            Diagonal(parse_cycles("(1 2 3)", d)),
            WordTranslation(Vertex((2,)), d),
            SubtreeDiagonal(Vertex((1,)), parse_cycles("(2 3)", d)),
            Compose(WordTranslation(Vertex((1,)), d),
                    Diagonal(parse_cycles("(2 3)", d))),
            Inverse(Compose(SubtreeDiagonal(Vertex((3, 1)), parse_cycles("(2 3)", d)),
                            Diagonal(parse_cycles("(1 2)", d)))),
        ]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 4), st.integers(-10 ** 4, 10 ** 4))
    @example(0, 10 ** 4)
    @example(4, -10 ** 4)
    def test_agrees_with_iterated_application(self, which, n):
        g = self.bounded_elements(3)[which]
        step = g if n >= 0 else Inverse(g)
        p = power(g, n)
        for v in ball(BASE, 2, 3):
            x = v
            for _ in range(abs(n)):
                x = step.apply(x)
            assert p.apply(v) == x
            # the local permutation carries the edge colors at v to those at p v
            sigma = p.local(v)
            for k in range(1, 4):
                assert p.apply(neighbor(v, k)) == neighbor(x, sigma(k))


class TestNegativePowers:
    def test_linear_number_of_steps(self, monkeypatch):
        import treelocal.autom as autom
        calls = 0

        def counting(v, k):
            nonlocal calls
            calls += 1
            return neighbor(v, k)

        monkeypatch.setattr(autom, "neighbor", counting)
        g = WordTranslation(Vertex((1, 2)), 3)
        assert power(g, -500).apply(BASE) == Vertex((2, 1) * 500)
        assert calls <= 5000

    @pytest.mark.parametrize("seed", range(4))
    def test_inverts_positive_power_on_ball(self, seed):
        rng = random.Random(seed)
        g = random_composite(rng, 3, 2)
        for n in (1, 2, 7, 30):
            up, down = power(g, n), power(g, -n)
            for v in ball(BASE, 3, 3):
                assert down.apply(up.apply(v)) == v
                assert up.apply(down.apply(v)) == v


def walked_inverse(g, v: Vertex, k: int = 1) -> Vertex:
    """g^-k(v) by k walks, the reference for the preimage lookups."""
    walk = Inverse(g)._walk
    for _ in range(k):
        v = walk(v)
    return v


class TestInverseLookup:
    """Inverse reads the preimage of a portrait's skeleton image off the
    portrait (the affine index map of a line, the images of a segment) and
    walks elsewhere; the walk is the reference."""

    @staticmethod
    def pairs():
        for d in (3, 4):
            for ctx in valid_contexts(d):
                if ctx.two_transitive:
                    L = build_line(ctx)
                    yield ctx, L, translation_t(ctx, L), rotation_r(ctx, L)

    @staticmethod
    def points(L: LineSpec, d: int) -> list[Vertex]:
        return [L.vertex(i) for i in range(-12, 13)] + list(ball(BASE, 4, d))

    def test_line_portraits(self):
        for ctx, L, t, r in self.pairs():
            points = self.points(L, ctx.d)
            for g in (t, r):
                inv = Inverse(g)
                for v in points:
                    assert inv.apply(v) == walked_inverse(g, v)
                for h in (Compose(g, inv), Compose(inv, g)):
                    for v in points:
                        assert h.apply(v) == v
                        assert h.local(v).is_identity()
            for k in (1, 2, 5):
                down = power(t, -k)
                for v in points:
                    assert down.apply(v) == walked_inverse(t, v, k)

    def test_transports(self):
        for ctx, L, _, _ in self.pairs():
            rng = random.Random(ctx.d)
            ends = list(ball(BASE, 3, ctx.d))
            for _ in range(6):
                g = transport_into_line(ctx, geodesic(*rng.sample(ends, 2)), L)
                inv = Inverse(g)
                for v in list(g.images) + self.points(L, ctx.d):
                    assert inv.apply(v) == walked_inverse(g, v)
                    assert Compose(g, inv).apply(v) == v
                assert [inv.apply(x) for x in g.images] == list(g.skeleton)

    @pytest.mark.parametrize("name", ["ctx3", "ctx4", "ctxd4"])
    def test_line_inverse_makes_no_walk(self, request, monkeypatch, name):
        ctx = request.getfixturevalue(name)
        L = build_line(ctx)

        def walked(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(Inverse, "_walk", walked)
        for g, image in ((translation_t(ctx, L), lambda i: i + 2),
                         (rotation_r(ctx, L), lambda i: -i)):
            g.local = walked
            inv = Inverse(g)
            for i in range(-20, 21):
                assert inv.apply(L.vertex(image(i))) == L.vertex(i)

    def test_sign_refused(self, ctx3):
        t = translation_t(ctx3, build_line(ctx3))
        for sign in (0, 2, -3):
            with pytest.raises(TreeLocalError, match="sign"):
                LinePortrait(t.line, (sign, 2), t.sigma_at, ctx3.F)


def scan_step(on_skeleton, target: Vertex, v: Vertex) -> int:
    """First color from v toward the skeleton, found by scanning the
    geodesic from v to the skeleton vertex target for its first skeleton
    vertex (the projection of v)."""
    for w in geodesic(v, target).vertices():
        if on_skeleton(w):
            return geodesic(v, w).colors[0]
    raise AssertionError("geodesic to a skeleton vertex left the skeleton")


def odd_line() -> dict:
    """A line with a non-base anchor and nonempty preambles, both of whose
    rays leave the anchor away from e, so e projects onto the anchor."""
    return {"anchor": "2.3",
            "forward": {"pre": [4, 1], "period": [2, 3]},
            "backward": {"pre": [1], "period": [2, 4]}}


class TestProjectionLemma:
    """The step toward a connected skeleton is the first step toward any
    of its vertices; checked against a scan for the projection."""

    def line_portraits(self, ctx):
        L = build_line(ctx)
        return [translation_t(ctx, L), rotation_r(ctx, L)]

    def check(self, g, on_skeleton, targets, d):
        off = 0
        for v in ball(BASE, 6, d):
            if on_skeleton(v):
                continue
            off += 1
            w, u, k = g._steps(v, {})[0]
            assert w == v and u == neighbor(v, k)
            for target in targets:
                assert k == scan_step(on_skeleton, target, v)
        assert off > 0

    def test_canonical_lines(self, ctx3, ctx4):
        for ctx in (ctx3, ctx4):
            for g in self.line_portraits(ctx):
                L = g.line
                self.check(g, lambda w: L.index_of(w) is not None,
                           [L.anchor, L.vertex(5), L.vertex(-3)], ctx.d)

    def test_line_with_offset_anchor_and_preambles(self, ctx4):
        for kind in ("t", "r"):
            g = decode_element({"op": "line", "kind": kind, "line": odd_line()},
                               4, ctx4)
            L = g.line
            assert L.anchor != BASE and L.forward.pre and L.backward.pre
            self.check(g, lambda w: L.index_of(w) is not None,
                       [L.anchor, L.vertex(4), L.vertex(-6)], 4)

    def test_segment_transport(self, ctx4):
        s = Segment(Vertex((2, 3)), (1, 2, 4))
        s2 = Segment(Vertex((1,)), (3, 1, 2))
        g = segment_transport(ctx4, s, s2)
        skeleton = set(g.skeleton)
        self.check(g, skeleton.__contains__, [g.skeleton[0], g.skeleton[-1]], 4)


class TestDeepFill:
    def test_far_vertex_evaluates_cold(self, ctx3):
        # e projects onto the line at v_0 = e, so the prefixes of v lead from
        # the line out to v; filling them in order never goes deeper than a step
        L = build_line(ctx3)
        v = Vertex((3, 1) * 300)
        cold, warm = translation_t(ctx3, L), translation_t(ctx3, L)
        for n in range(len(v) + 1):
            warm.apply(Vertex(v[:n]))
        assert cold.apply(v) == warm.apply(v)
        assert cold.local(v) == warm.local(v)


class TestBallLocals:
    """One pass over the ball gives what local gives each vertex cold."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_line_portraits(self, d):
        for ctx in valid_contexts(d):
            L = build_line(ctx)
            for make in (lambda: translation_t(ctx, L),
                         lambda: rotation_r(ctx, L)):
                g, fresh = make(), make()
                assert list(g.ball_locals(6)) == [
                    (v, fresh.local(v)) for v in ball(BASE, 6, d)]

    def test_skeleton_far_from_base(self, ctx4):
        # the skeleton starts at its anchor 1.2.3.4.1, so e, 1, 1.2, 1.2.3
        # and 1.2.3.4 lie on [BASE, anchor] off the skeleton
        def make():
            return segment_transport(ctx4, Segment(Vertex((1, 2, 3, 4, 1)), (2, 3)),
                                     Segment(Vertex((3,)), (1, 2)))
        g, fresh = make(), make()
        assert all(len(v) >= 5 for v in g.skeleton)
        assert list(g.ball_locals(6)) == [
            (v, fresh.local(v)) for v in ball(BASE, 6, 4)]

    def test_default_for_other_expressions(self, ctx4):
        L = build_line(ctx4)
        t = translation_t(ctx4, L)
        g = Compose(t, WordTranslation(Vertex((1, 2)), 4))
        assert list(g.ball_locals(3)) == [(v, g.local(v)) for v in ball(BASE, 3, 4)]

    def test_unsolvable_fill_raises_through_certify(self):
        # the fill group <(1 2)> cannot send color 3 to 1 at the vertex 3
        fill = generate([parse_cycles("(1 2)", 3)], 3)
        g = SegmentPortrait([BASE, Vertex((1,))], [BASE, Vertex((3,))],
                            [Permutation((3, 2, 1))] * 2, fill)
        with pytest.raises(OrbitViolation, match="at 3$"):
            certify_membership(g, fill, symmetric_group(3), 2)


class TestPortraitCost:
    def test_certify_walks_no_steps_and_fills_no_memo(self, ctx4, monkeypatch):
        calls = 0
        steps = FilledPortrait._steps

        def counting(self, v, memo):
            nonlocal calls
            calls += 1
            return steps(self, v, memo)

        monkeypatch.setattr(FilledPortrait, "_steps", counting)
        L = build_line(ctx4)
        t = translation_t(ctx4, L)
        certify_membership(t, ctx4.F, ctx4.Fp, 8)
        assert calls == 0
        assert len(t._local_memo) <= 2 * 8 + 1

    def test_one_index_lookup_per_ball_vertex(self, ctx4, monkeypatch):
        calls = 0
        index_of = LineSpec.index_of

        def counting(self, v):
            nonlocal calls
            calls += 1
            return index_of(self, v)

        monkeypatch.setattr(LineSpec, "index_of", counting)
        L = build_line(ctx4)
        t = translation_t(ctx4, L)
        certify_membership(t, ctx4.F, ctx4.Fp, 8)
        assert calls <= ball_size(8, 4) == 13121

    def test_one_fill_solve_per_color_constraint(self, monkeypatch):
        # a fresh context, since the solve memos of its groups outlive the
        # portraits
        _, ctx = validate_inputs(4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 2)"])
        L = build_line(ctx)
        gs = translation_t(ctx, L), rotation_r(ctx, L)
        calls = 0

        def counting(G, constraints):
            nonlocal calls
            calls += 1
            return find_mapping(G, constraints)

        monkeypatch.setattr(permgroups, "find_mapping", counting)
        for g in gs:
            certify_membership(g, ctx.F, ctx.Fp, 8)
        # both portraits fill from F and share its memo: at most one solve
        # per one-point constraint (k, target) in all
        assert 0 < calls <= 4 * 4


class TestFillSolve:
    @pytest.mark.parametrize("d", [3, 4])
    def test_memoized_solve_equals_find_mapping(self, d, monkeypatch):
        calls = 0

        def counting(G, constraints):
            nonlocal calls
            calls += 1
            return find_mapping(G, constraints)

        monkeypatch.setattr(permgroups, "find_mapping", counting)
        points = range(1, d + 1)
        # two-point keys (a1, b1, a2, b2) with distinct sources, as slots ask
        keys = [(a1, b1, a2, b2) for a1, b1, a2, b2
                in itertools.product(points, repeat=4) if a1 != a2]
        for ctx in valid_contexts(d):
            for fill in (ctx.F, ctx.Fp):
                g = SegmentPortrait([BASE], [BASE], [Permutation.identity(d)],
                                    fill)
                for _ in range(2):  # cold, then from the memo
                    for k in range(1, d + 1):
                        for target in range(1, d + 1):
                            want = find_mapping(fill, [(k, target)])
                            if want is None:
                                with pytest.raises(OrbitViolation):
                                    g._fill_element(k, target, BASE)
                            else:
                                assert g._fill_element(k, target, BASE) == want
                # a copy of the group starts with a cold memo of its own
                G = PermGroup(fill.degree, fill.generators, fill.elements)
                for rnd in range(2):
                    calls = 0
                    for key in keys:
                        want = find_mapping(fill, list(zip(key[::2], key[1::2])))
                        assert G.least(key) == want
                    assert calls == (len(keys) if rnd == 0 else 0)

    def test_groups_freed_without_the_cycle_collector(self):
        # the memo lives on the group without referring back to it, so a
        # context's groups die by reference counting alone
        gc.disable()
        try:
            _, ctx = validate_inputs(4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 2)"])
            L = build_line(ctx)
            gs = [translation_t(ctx, L), rotation_r(ctx, L),
                  segment_transport(ctx, Segment(BASE, (1, 2)),
                                    Segment(BASE, (2, 3)))]
            for g in gs:
                certify_membership(g, ctx.F, ctx.Fp, 3)
            assert ctx.F.least((1, 1)) is not None
            refs = weakref.ref(ctx.F), weakref.ref(ctx.Fp)
            del ctx, L, gs, g
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_unsolvable_constraint_raises(self):
        # the fill group <(1 2)> cannot send color 3 anywhere else, so the
        # neighbor 1.3 of the skeleton vertex 1 has no fill element
        fill = generate([parse_cycles("(1 2)", 3)], 3)
        g = SegmentPortrait([BASE, Vertex((1,))], [BASE, Vertex((3,))],
                            [Permutation((3, 2, 1))] * 2, fill)
        with pytest.raises(OrbitViolation):
            g.local(Vertex((1, 3)))


def coprime_period_line() -> LineSpec:
    """Periods of 101 and 103 colors: P = 10,403 at m = 1."""
    return LineSpec(BASE, EventuallyPeriodic((), (1, 2, 3) * 33 + (1, 2)),
                    EventuallyPeriodic((), (3, 4) * 51 + (1,)))


class TestLinePeriodCap:
    def test_over_cap_raises_before_any_check(self, ctx4):
        asked = []

        def sigma_at(i):
            asked.append(i)
            return Permutation.identity(4)

        with pytest.raises(SizeLimitExceeded, match="10403"):
            LinePortrait(coprime_period_line(), (1, 0), sigma_at, ctx4.F)
        assert asked == []

    def test_translation_over_cap(self, ctx4):
        with pytest.raises(SizeLimitExceeded):
            translation_t(ctx4, coprime_period_line())

    def test_cap_is_inclusive(self, ctx4, monkeypatch):
        L = build_line(ctx4)
        P = rotation_r(ctx4, L).period
        monkeypatch.setattr(autom, "LINE_PERIOD_CAP", P)
        rotation_r(ctx4, L)
        monkeypatch.setattr(autom, "LINE_PERIOD_CAP", P - 1)
        with pytest.raises(SizeLimitExceeded):
            rotation_r(ctx4, L)
