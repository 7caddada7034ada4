"""Alternating chain complexes on finite vertex windows."""

import bisect
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from treelocal.errors import HypothesisUnverified, SizeLimitExceeded, TreeLocalError
from treelocal.chains import (
    AlternatingChain,
    ComplexWindow,
    _aligned_sample,
    _distance_rows,
    aligned_basis,
    aligned_closure_check,
    aligned_count_bound,
    aligned_tuples,
    boundary,
    exactness_check,
    normalize,
    random_chain,
    restriction_correspondence_check,
)
from treelocal.ratmat import rank
from treelocal.tree import (
    BASE,
    Vertex,
    ball,
    distance,
    geodesic,
    is_aligned,
    is_aligned_bruteforce,
)

from conftest import (
    scan_transport_into_line,
    valid_contexts,
    vertex_transport_into_line,
)


V = Vertex.parse


class TestNormalize:
    def test_sorts_and_signs(self):
        a, b = V("1"), V("2")
        assert normalize((a, b)) == ((a, b), 1)
        assert normalize((b, a)) == ((a, b), -1)

    def test_three_cycle_is_even(self):
        a, b, c = V("1"), V("2"), V("3")
        assert normalize((b, c, a)) == ((a, b, c), 1)
        assert normalize((b, a, c)) == ((a, b, c), -1)

    def test_repeats_vanish(self):
        assert normalize((V("1"), V("1"))) is None


class TestChains:
    def test_build_cancels_opposite_orientations(self):
        a, b = V("1"), V("2")
        c = AlternatingChain.build(1, [((a, b), Fraction(1)),
                                       ((b, a), Fraction(1))])
        assert c.is_zero()

    def test_degree_zero_boundary_is_augmentation(self):
        c = AlternatingChain.build(0, [((V("1"),), Fraction(2)),
                                       ((V("2"),), Fraction(1, 2))])
        assert boundary(c) == Fraction(5, 2)

    def test_boundary_squares_to_zero_random(self):
        rng = random.Random(12)
        points = tuple(ball(BASE, 2, 3))
        w = ComplexWindow(points[:6], 3)
        for _ in range(100):
            n = rng.randint(2, 3)
            c = random_chain(w, n, rng)
            dc = boundary(c)
            ddc = boundary(dc)
            if isinstance(ddc, AlternatingChain):
                assert ddc.is_zero()
            else:
                assert ddc == 0

    def test_wrong_arity_rejected(self):
        with pytest.raises(Exception):
            AlternatingChain.build(1, [((V("1"),), Fraction(1))])


class TestExactness:
    def test_each_rank_once(self, monkeypatch):
        # six points, degree 4: the boundaries of degrees 0..5, one rank each
        import treelocal.chains as chains
        calls = []
        monkeypatch.setattr(chains, "rank", lambda m: calls.append(m) or rank(m))
        assert exactness_check(ComplexWindow(tuple(ball(BASE, 2, 3))[:6], 4))
        assert len(calls) == 6

    def test_small_windows(self):
        points = list(ball(BASE, 2, 3))[:5]
        for size in (2, 3, 4, 5):
            for pts in itertools.combinations(points, size):
                assert exactness_check(ComplexWindow(pts, 3))

    def test_caps_enforced(self):
        points = tuple(ball(BASE, 2, 3))[:7]
        with pytest.raises(SizeLimitExceeded):
            exactness_check(ComplexWindow(points, 3))


class TestAligned:
    def test_basis_subset_of_full(self):
        pts = tuple(ball(BASE, 1, 3))
        w = ComplexWindow(pts, 2)
        assert set(aligned_basis(w, 1)) <= set(w.basis(1))

    def test_closure_under_boundary(self):
        pts = tuple(ball(BASE, 2, 3))[:6]
        w = ComplexWindow(pts, 3)
        for n in range(4):
            assert aligned_closure_check(w, n)

    @pytest.mark.parametrize("d", [3, 4])
    def test_tuples_from_geodesics_equal_the_filter(self, d):
        for R in range(4):
            points = list(ball(BASE, R, d))
            for k in range(1, 5):
                assert aligned_tuples(points, k) == [
                    t for t in itertools.combinations(points, k) if is_aligned(t)]

    def test_tripod_excluded(self):
        w = ComplexWindow((V("1"), V("2"), V("3")), 2)
        assert aligned_basis(w, 2) == []


class TestRestriction:
    def test_correspondence_on_small_ball(self, ctx3):
        report = restriction_correspondence_check(ctx3, 2, 1,
                                                  sample_cap=60, seed=0)
        assert report["tuples_checked"] > 0
        assert report["transported"] == report["tuples_checked"]
        assert report["consistent"] == report["tuples_checked"]
        assert report["failures"] == []

    @pytest.mark.parametrize("d", [3, 4])
    def test_count_bound_holds(self, d):
        for R in range(4):
            points = list(ball(BASE, R, d))
            for n in range(4):
                count = len(aligned_tuples(points, n + 1))
                assert count <= aligned_count_bound(len(points), R, n)

    def test_window_over_cap_refused(self, ctx4):
        # the survey's radius-3 windows stay far below the cap
        assert aligned_count_bound(len(list(ball(BASE, 3, 4))), 3, 2) == 6890
        with pytest.raises(SizeLimitExceeded, match="ENUMERATION_CAP"):
            restriction_correspondence_check(ctx4, 5, 2)

    def test_requires_2transitive(self, ctxd4):
        with pytest.raises(HypothesisUnverified):
            restriction_correspondence_check(ctxd4, 2, 1)

    @pytest.mark.parametrize("d", [3, 4])
    def test_reports_match_scanned_transports(self, d, monkeypatch):
        # transport_into_line reads its images off the walked line; the
        # radius scan builds and walks each target segment
        import treelocal.chains as chains
        for ctx in valid_contexts(d):
            if not ctx.two_transitive:
                continue
            reports = [restriction_correspondence_check(ctx, 3, 2, seed=seed)
                       for seed in range(10)]
            assert all(r["tuples_checked"] == r["consistent"] == 120
                       and not r["failures"] for r in reports)
            with monkeypatch.context() as m:
                m.setattr(chains, "transport_into_line",
                          lambda ctx, s, L: scan_transport_into_line(
                              ctx, s, L)[1])
                assert reports == [
                    restriction_correspondence_check(ctx, 3, 2, seed=seed)
                    for seed in range(10)]

    def test_deterministic_given_seed(self, ctx3):
        r1 = restriction_correspondence_check(ctx3, 2, 2,
                                              sample_cap=40, seed=5)
        r2 = restriction_correspondence_check(ctx3, 2, 2,
                                              sample_cap=40, seed=5)
        assert r1 == r2


class TestLeanTransports:
    """The check's transports read the line in one slice, and its second
    images are t's of the first, with the same reports as before."""

    # sha256 of the reports on the ten 2-transitive pairs at d = 3, 4
    # (seed 0), as the check with a composite second transport gave them
    PINNED = {
        (2, 1): "1933d96ce51fbdf6d8e0f30bb076b45b1bf469d332587b27b8f1b2efe8d30831",
        (3, 2): "32ded2df8c3c60ad714abfc5282b122f5b9b3025505cb613492e75362581307c",
        (3, 3): "32ded2df8c3c60ad714abfc5282b122f5b9b3025505cb613492e75362581307c",
    }

    @pytest.mark.parametrize("radius, n", sorted(PINNED))
    def test_reports_pinned(self, radius, n):
        reports = [restriction_correspondence_check(ctx, radius, n)
                   for d in (3, 4) for ctx in valid_contexts(d)
                   if ctx.two_transitive]
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[radius, n]

    @pytest.mark.parametrize("d", [3, 4])
    def test_transports_match_the_vertex_reads(self, d, monkeypatch):
        import treelocal.chains as chains
        real_sample = chains._aligned_sample
        real_transport = chains.transport_into_line
        walks, built = {}, []

        def sample(*args):
            drawn = real_sample(*args)
            walks.update((id(span), span.vertices()) for _, span in drawn)
            return drawn

        def transport(ctx, s, L):
            built.append((s, real_transport(ctx, s, L),
                          vertex_transport_into_line(ctx, s, L)))
            return built[-1][1]

        monkeypatch.setattr(chains, "_aligned_sample", sample)
        monkeypatch.setattr(chains, "transport_into_line", transport)
        for ctx in valid_contexts(d):
            if not ctx.two_transitive:
                continue
            for seed in range(10):
                built.clear()
                report = restriction_correspondence_check(ctx, 3, 2, seed=seed)
                assert report["consistent"] == len(built) == 120
                for s, g, oracle in built:
                    # the very tuple the draw walked
                    assert g.skeleton is walks[id(s)]
                    assert g.images == oracle.images
                    assert g.sigmas == oracle.sigmas

    @pytest.mark.parametrize("radius, n", [(0, 1), (0, 2), (1, 3), (1, 5),
                                           (2, 5), (3, 7), (3, 99)])
    def test_check_of_nothing_refused(self, ctx4, monkeypatch, radius, n):
        # past n = 2 radius no geodesic of the ball has n + 1 vertices
        import treelocal.chains as chains
        assert aligned_tuples(list(ball(BASE, radius, 4)), n + 1) == []
        monkeypatch.setattr(chains, "build_line", None)
        with pytest.raises(TreeLocalError) as caught:
            restriction_correspondence_check(ctx4, radius, n)
        assert type(caught.value) is TreeLocalError
        assert (f"radius {radius} " in str(caught.value)
                and f"degree {n} " in str(caught.value))

    @pytest.mark.parametrize("radius, n", [(0, 0), (1, 2), (2, 4)])
    def test_longest_tuples_still_checked(self, ctx4, radius, n):
        # n = 2 radius: the tuples are the diameters of the ball
        count = len(aligned_tuples(list(ball(BASE, radius, 4)), n + 1))
        report = restriction_correspondence_check(ctx4, radius, n)
        assert report["tuples_checked"] == report["consistent"] == count > 0


class TestDrawPins:
    """The restriction report holds only counts, so these pins hold what it
    drew: the tuples, and the line indices their transports land on."""

    # sha256 of the drawn tuples and of their landing indices on the ten
    # 2-transitive pairs at d = 3, 4, seed 0, (radius, degree) = (3, 2)
    TUPLES = "75c5ca403141f684c442c0cbc6f34a3fc066fe685daea8dd9394590ef2461075"
    INDICES = "766bb56aeae77aaac2e552eb8ef84adf97337858239c3dd19f73b0c5ab5f8198"

    def test_draws_pinned(self, monkeypatch):
        import treelocal.chains as chains
        real_sample = chains._aligned_sample
        real_transport = chains.transport_into_line
        tuple_of, tuples, indices = {}, [], []

        def sample(*args):
            entries = real_sample(*args)
            tuple_of.update((id(span), tup) for tup, span in entries)
            return entries

        def transport(ctx, s, L):
            g = real_transport(ctx, s, L)
            tup = tuple_of[id(s)]
            tuples.append([str(v) for v in tup])
            indices.append([L.index_of(g.apply(v)) for v in tup])
            return g

        monkeypatch.setattr(chains, "_aligned_sample", sample)
        monkeypatch.setattr(chains, "transport_into_line", transport)
        for d in (3, 4):
            for ctx in valid_contexts(d):
                if ctx.two_transitive:
                    restriction_correspondence_check(ctx, 3, 2, seed=0)
        assert len(tuples) == 1200

        def digest(obj):
            return hashlib.sha256(json.dumps(obj).encode()).hexdigest()
        assert digest(tuples) == self.TUPLES
        assert digest(indices) == self.INDICES


class TestAlignedSample:
    """_aligned_sample draws by rank from the closed-form count of the
    aligned tuples of a ball; aligned_tuples is the reference."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_whole_window_under_cap(self, d):
        for R in range(4):
            points = list(ball(BASE, R, d))
            for size in range(1, 5):
                ref = aligned_tuples(points, size)
                drawn = _aligned_sample(points, size, len(ref), random.Random(0))
                assert [tup for tup, _ in drawn] == ref
                for tup, span in drawn:
                    assert {span.start, span.vertices()[-1]} <= set(tup)
                    assert set(tup) <= set(span.vertices())

    @pytest.mark.parametrize("d", [3, 4])
    def test_total_is_the_closed_form_count(self, d):
        # with cap = count the whole window comes back (total <= count), and
        # with cap = count - 1 a sample of cap tuples (total > count - 1)
        for R in range(4):
            points = list(ball(BASE, R, d))
            for size in range(1, 5):
                count = len(aligned_tuples(points, size))
                if count:
                    drawn = _aligned_sample(points, size, count - 1,
                                            random.Random(0))
                    assert len(drawn) == count - 1

    @pytest.mark.parametrize("d", [3, 4])
    def test_sample_over_cap(self, d):
        points = list(ball(BASE, 3, d))
        order = {p: i for i, p in enumerate(points)}
        for size in range(2, 5):
            for seed in range(3):
                drawn = _aligned_sample(points, size, 30, random.Random(seed))
                tuples = [tup for tup, _ in drawn]
                assert len(set(tuples)) == len(tuples) == 30
                assert all(is_aligned_bruteforce(t) for t in tuples)
                keys = [[order[v] for v in t] for t in tuples]
                assert all(k == sorted(k) for k in keys)
                assert keys == sorted(keys)
                assert drawn == _aligned_sample(points, size, 30,
                                                random.Random(seed))

    @pytest.mark.parametrize("d", [3, 4])
    def test_every_tuple_drawn_across_seeds(self, d):
        points = list(ball(BASE, 2, d))
        every = aligned_tuples(points, 3)
        seen = set()
        for seed in range(200):
            seen.update(tup for tup, _ in _aligned_sample(
                points, 3, len(every) // 2, random.Random(seed)))
        assert seen == set(every)

    def test_check_lists_no_window(self, ctx4, monkeypatch):
        import treelocal.chains as chains
        calls = []
        monkeypatch.setattr(chains, "aligned_tuples",
                            lambda *a: calls.append(a) or aligned_tuples(*a))
        report = restriction_correspondence_check(ctx4, 3, 2)
        assert report["tuples_checked"] == report["consistent"] == 120
        assert calls == []


def distance_sample(points, size, cap, rng):
    """The draw as first written: a distance call per pair for the
    weights, and each span walked by prefixes of its ends."""
    if size == 1:
        pairs, weights = [(p, p) for p in points], [1] * len(points)
    else:
        pairs = list(itertools.combinations(points, 2))
        weights = [math.comb(distance(a, b) - 1, size - 2) for a, b in pairs]
    ends = list(itertools.accumulate(weights))
    total = ends[-1] if ends else 0
    picks = range(total) if total <= cap else rng.sample(range(total), cap)
    order = {p: i for i, p in enumerate(points)}
    drawn = []
    for k in picks:
        i = bisect.bisect_right(ends, k)
        a, b = pairs[i]
        walk = prefix_walk(a, b)
        between = next(itertools.islice(
            itertools.combinations(walk[1:-1], max(size - 2, 0)),
            k - (ends[i - 1] if i else 0), None))
        drawn.append((tuple(sorted(order[v] for v in {a, b, *between})), walk))
    drawn.sort(key=lambda entry: entry[0])
    return [(tuple(points[j] for j in key), walk) for key, walk in drawn]


def prefix_walk(a, b):
    """The vertices of [a, b]: up from a through its prefixes to the
    common one, then down through the prefixes of b."""
    c = (len(a) + len(b) - distance(a, b)) // 2
    return ([Vertex(a[:k]) for k in range(len(a), c, -1)]
            + [Vertex(b[:k]) for k in range(c, len(b) + 1)])


class TestOneWalkPerSpan:
    """The check draws its tuples as before, walks each span once, and
    its transports read that walk."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_draws_as_first_written(self, d, monkeypatch):
        # stop each check at its draw, on every 2-transitive pair
        import treelocal.chains as chains

        class Drawn(Exception):
            pass

        def sample(points, size, cap, rng):
            raise Drawn(list(points), size, cap,
                        chains_sample(points, size, cap, rng))

        chains_sample = chains._aligned_sample
        monkeypatch.setattr(chains, "_aligned_sample", sample)
        for ctx in valid_contexts(d):
            if not ctx.two_transitive:
                continue
            for seed in range(10):
                with pytest.raises(Drawn) as caught:
                    restriction_correspondence_check(ctx, 3, 2, seed=seed)
                points, size, cap, drawn = caught.value.args
                expected = distance_sample(points, size, cap, random.Random(seed))
                assert [tup for tup, _ in drawn] == [tup for tup, _ in expected]
                for (_, span), (_, walk) in zip(drawn, expected):
                    assert span == geodesic(walk[0], walk[-1])
                    assert list(span.vertices()) == walk

    @pytest.mark.parametrize("d", [3, 4])
    def test_draws_as_first_written_at_every_size(self, d):
        points = list(ball(BASE, 3, d))
        for size in range(1, 5):
            for seed in range(10):
                drawn = _aligned_sample(points, size, 120, random.Random(seed))
                expected = distance_sample(points, size, 120, random.Random(seed))
                assert [(tup, list(span.vertices())) for tup, span in drawn] \
                    == expected

    @pytest.mark.parametrize("d", [3, 4])
    def test_distance_rows_on_balls(self, d):
        for center in ("e", "1", "2.1.3"):
            points = list(ball(V(center), 2, d))
            assert list(_distance_rows(points)) == [
                [distance(a, b) for b in points[i + 1:]]
                for i, a in enumerate(points)]

    def test_transport_reads_the_drawn_walk(self, ctx4, monkeypatch):
        import treelocal.chains as chains
        walks, portraits = {}, []
        real_sample = chains._aligned_sample
        real_transport = chains.transport_into_line

        def sample(*args):
            drawn = real_sample(*args)
            walks.update((id(span), span.vertices()) for _, span in drawn)
            return drawn

        def transport(ctx, s, L):
            portraits.append((s, real_transport(ctx, s, L)))
            return portraits[-1][1]

        monkeypatch.setattr(chains, "_aligned_sample", sample)
        monkeypatch.setattr(chains, "transport_into_line", transport)
        report = restriction_correspondence_check(ctx4, 3, 2)
        assert report["consistent"] == len(portraits) == 120
        # the skeleton is the very tuple the draw walked: no second walk
        assert all(g.skeleton is walks[id(s)] for s, g in portraits)
