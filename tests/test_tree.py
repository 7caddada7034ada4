"""Reduced-word model of the colored regular tree."""

import itertools

import pytest
from hypothesis import given, strategies as st

from treelocal import tree
from treelocal.errors import SizeLimitExceeded, TreeLocalError
from treelocal.tree import (
    BASE,
    EventuallyPeriodic,
    LineSpec,
    Segment,
    Vertex,
    adjacent,
    ball,
    ball_size,
    distance,
    edge_between,
    geodesic,
    is_aligned,
    is_aligned_bruteforce,
    midpoint,
    neighbor,
    reduce_word,
    vertex_key,
)
from treelocal.localaction import build_line

from conftest import distance_filter_ball, distance_index_of


def word_strategy(d: int, max_len: int = 8):
    return st.lists(st.integers(1, d), max_size=max_len).map(reduce_word)


class TestVertex:
    def test_base(self):
        assert str(BASE) == "e"
        assert Vertex.parse("e") == BASE
        assert Vertex.parse("") == BASE

    def test_parse_roundtrip(self):
        for text in ("1", "1.2.1", "3.1.2"):
            assert str(Vertex.parse(text)) == text

    def test_rejects_unreduced(self):
        with pytest.raises(TreeLocalError):
            Vertex((1, 1, 2))

    def test_reduce_word(self):
        assert reduce_word((1, 2, 2, 1)) == BASE
        assert reduce_word((1, 2, 2, 3)) == Vertex((1, 3))

    @given(word_strategy(3))
    def test_neighbor_involution(self, v):
        for k in range(1, 4):
            assert neighbor(neighbor(v, k), k) == v
            assert distance(v, neighbor(v, k)) == 1

    @given(word_strategy(3), word_strategy(3))
    def test_vertex_key_total_order(self, u, v):
        assert (vertex_key(u) == vertex_key(v)) == (u == v)


class TestDistance:
    @given(word_strategy(3), word_strategy(3))
    def test_metric_axioms(self, u, v):
        assert distance(u, v) == distance(v, u)
        assert (distance(u, v) == 0) == (u == v)

    @given(word_strategy(3), word_strategy(3), word_strategy(3))
    def test_triangle_inequality(self, u, v, w):
        assert distance(u, w) <= distance(u, v) + distance(v, w)

    @given(word_strategy(3), word_strategy(3), word_strategy(3),
           word_strategy(3))
    def test_four_point_condition(self, x, y, z, w):
        # in a tree the two largest of the three pair sums coincide
        sums = sorted([
            distance(x, y) + distance(z, w),
            distance(x, z) + distance(y, w),
            distance(x, w) + distance(y, z),
        ])
        assert sums[1] == sums[2]

    @given(word_strategy(4), word_strategy(4))
    def test_distance_is_word_length(self, u, v):
        # the length of u^-1 v in the free product of the Z/2 factors
        assert distance(u, v) == len(reduce_word(tuple(reversed(u)) + tuple(v)))

    @pytest.mark.parametrize("d", [3, 4])
    def test_adjacent_is_distance_one(self, d):
        points = list(ball(BASE, 3, d))
        for u, v in itertools.product(points, repeat=2):
            assert adjacent(u, v) == (distance(u, v) == 1)

    @given(word_strategy(4), word_strategy(4))
    def test_geodesic_realizes_distance(self, u, v):
        seg = geodesic(u, v)
        assert seg.start == u
        assert seg.vertices()[-1] == v
        assert seg.length == distance(u, v)


class TestSegment:
    def test_vertices_walk(self):
        seg = Segment(Vertex((1,)), (2, 3))
        assert [str(v) for v in seg.vertices()] == ["1", "1.2", "1.2.3"]

    def test_vertices_walked_once(self):
        # kept in the instance dict, apart from ==, hash and the fields
        seg = Segment(Vertex((2, 1)), (3, 1, 2, 3))
        walk = seg.vertices()
        assert seg.__dict__["_walk"] is walk and seg.vertices() is walk
        expected = [seg.start]
        for k in seg.colors:
            expected.append(neighbor(expected[-1], k))
        assert walk == tuple(expected)
        assert all(type(v) is Vertex for v in walk)
        assert seg == Segment(Vertex((2, 1)), (3, 1, 2, 3))
        with pytest.raises(AttributeError):
            seg.start = BASE

    def test_rejects_backtracking(self):
        with pytest.raises(TreeLocalError):
            Segment(BASE, (1, 1))

    def test_edge_between(self):
        e = edge_between(Vertex((1, 2)), Vertex((1,)))
        assert e.near == Vertex((1,))
        assert e.color == 2
        with pytest.raises(TreeLocalError):
            edge_between(BASE, Vertex((1, 2)))


class TestMidpoint:
    @given(word_strategy(3), word_strategy(3))
    def test_equidistant(self, u, v):
        m = midpoint(u, v)
        n = distance(u, v)
        if n % 2 == 0:
            assert isinstance(m, Vertex)
            assert distance(u, m) == distance(m, v) == n // 2
        else:
            a, b = m.endpoints()
            assert {distance(u, a) + distance(a, v),
                    distance(u, b) + distance(b, v)} == {n}


class TestBall:
    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("R", [0, 1, 2, 3])
    def test_size_matches_closed_form(self, d, R):
        assert len(list(ball(BASE, R, d))) == ball_size(R, d)

    def test_offcenter_size(self):
        assert len(list(ball(Vertex((1, 2)), 3, 3))) == ball_size(3, 3)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(tree, "BALL_CAP", ball_size(3, 4))
        assert len(list(ball(BASE, 3, 4))) == ball_size(3, 4)
        walk = ball(BASE, 4, 4)
        with pytest.raises(SizeLimitExceeded, match="BALL_CAP"):
            next(walk)

    def test_huge_radius_refused_at_once(self):
        with pytest.raises(SizeLimitExceeded):
            next(ball(BASE, 10 ** 12, 3))

    def test_needs_degree_three(self):
        with pytest.raises(TreeLocalError):
            list(ball(BASE, 2, 2))

    def test_distinct_and_within_radius(self):
        vs = list(ball(Vertex((2,)), 3, 4))
        assert len(vs) == len(set(vs))
        assert all(distance(Vertex((2,)), v) <= 3 for v in vs)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("center", ["e", "1", "2.3.1"])
    def test_equals_distance_filter_in_order(self, d, center):
        v = Vertex.parse(center)
        for R in range(6):
            assert list(ball(v, R, d)) == distance_filter_ball(v, R, d)


class TestAlignment:
    def test_matches_bruteforce_small(self):
        points = list(ball(BASE, 2, 3))
        for tup in itertools.combinations(points, 3):
            assert is_aligned(tup) == is_aligned_bruteforce(tup)

    def test_collinear_triple(self):
        assert is_aligned((BASE, Vertex((1,)), Vertex((1, 2))))

    def test_tripod_not_aligned(self):
        assert not is_aligned((Vertex((1,)), Vertex((2,)), Vertex((3,))))

    def test_single_and_repeated_points(self):
        v = Vertex((1, 2))
        assert is_aligned((v,))
        assert is_aligned((v, v, v))
        assert is_aligned((v, BASE, v, BASE))
        with pytest.raises(TreeLocalError):
            is_aligned(())

    @given(st.lists(word_strategy(3, 5), min_size=1, max_size=6))
    def test_matches_bruteforce_with_repeats(self, pts):
        pts = pts + pts[:2]
        assert is_aligned(pts) == is_aligned_bruteforce(pts)


class TestLineSpec:
    def line(self) -> LineSpec:
        return LineSpec(BASE, EventuallyPeriodic((), (2, 1)),
                        EventuallyPeriodic((), (1, 2)))

    def test_vertices(self):
        L = self.line()
        assert str(L.vertex(0)) == "e"
        assert str(L.vertex(2)) == "2.1"
        assert str(L.vertex(-2)) == "1.2"

    def test_edge_color_consistency(self):
        L = self.line()
        for i in range(-6, 7):
            assert neighbor(L.vertex(i - 1), L.edge_color(i)) == L.vertex(i)

    def test_index_of(self):
        L = self.line()
        for i in range(-5, 6):
            assert L.index_of(L.vertex(i)) == i
        assert L.index_of(Vertex((3,))) is None

    def test_is_geodesic(self):
        L = self.line()
        for i in range(-5, 6):
            for j in range(i, 6):
                assert distance(L.vertex(i), L.vertex(j)) == j - i

    def test_rejects_backtracking_line(self):
        with pytest.raises(TreeLocalError):
            LineSpec(BASE, EventuallyPeriodic((), (1,)),
                     EventuallyPeriodic((), (2,)))

    def test_walk_matches_naive_walk(self):
        # non-base anchor, nonempty preambles; the line passes through e
        L = LineSpec(Vertex((2, 3)), EventuallyPeriodic((3, 2), (1, 4)),
                     EventuallyPeriodic((1,), (2, 4)))
        naive = {0: L.anchor}
        for i in range(1, 41):
            naive[i] = neighbor(naive[i - 1], L.forward.term(i))
            naive[-i] = neighbor(naive[1 - i], L.backward.term(i))
        # ask out of order, so the lazy extension is exercised both ways
        for i in (40, -3, 7, -40, 0):
            assert L.vertex(i) == naive[i]
        for i, v in naive.items():
            assert L.vertex(i) == v
            assert L.index_of(v) == i
        on_line = set(naive.values())
        for v in ball(BASE, 4, 4):
            if v not in on_line:
                assert L.index_of(v) is None

    def test_index_of_equals_distance_oracle(self, ctx3, ctx4, ctxd4):
        lines = [(build_line(ctx), ctx.d) for ctx in (ctx3, ctx4, ctxd4)]
        lines.append((LineSpec(Vertex((2, 3)), EventuallyPeriodic((3, 2), (1, 4)),
                               EventuallyPeriodic((1,), (2, 4))), 4))
        for L, d in lines:
            # a fresh copy, so its index grows from the queries below only
            fresh = LineSpec(L.anchor, L.forward, L.backward)
            for v in ball(L.anchor, 6, d):
                assert fresh.index_of(v) == distance_index_of(L, v)
            for i in range(-40, 41):
                v = L.vertex(i)
                assert fresh.index_of(v) == distance_index_of(L, v) == i

    def test_forward_slice_equals_vertex_reads(self):
        # non-base anchor and preambles; each slice on a fresh line, so
        # that it extends the walk, and again on the walked line
        def fresh():
            return LineSpec(Vertex((2, 3)), EventuallyPeriodic((3, 2), (1, 4)),
                            EventuallyPeriodic((1,), (2, 4)))
        walked = fresh()
        for lo, hi in [(0, 1), (0, 5), (1, 4), (3, 3), (7, 12), (0, 30), (29, 31)]:
            L = fresh()
            expected = [walked.vertex(i) for i in range(lo, hi)]
            assert L.forward_slice(lo, hi) == expected
            assert walked.forward_slice(lo, hi) == expected
            # the walk reached v_(hi - 1) and its index has every vertex
            assert all(L.index_of(v) == i for i, v in enumerate(expected, lo))
        with pytest.raises(TreeLocalError):
            walked.forward_slice(-1, 2)

    def test_walk_table_is_not_part_of_equality(self):
        L, L2 = self.line(), self.line()
        L.vertex(30)
        L.index_of(Vertex((3, 1, 3)))
        assert L == L2 and hash(L) == hash(L2) and repr(L) == repr(L2)

    def test_eventually_periodic_terms(self):
        seq = EventuallyPeriodic((5,), (1, 2))
        assert [seq.term(i) for i in range(1, 6)] == [5, 1, 2, 1, 2]
        with pytest.raises(TreeLocalError):
            seq.term(0)
