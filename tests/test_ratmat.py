"""Fraction-free integer elimination against the Fraction oracle."""

import itertools
import random

import pytest

from treelocal import ratmat
from treelocal.chains import (
    ComplexWindow,
    MAX_DEGREE,
    MAX_WINDOW_POINTS,
    _boundary_matrix,
    aligned_tuples,
)
from treelocal.ratmat import border, pivot_positions, rank
from treelocal.tree import BASE, Vertex, ball, vertex_key

from conftest import fraction_pivot_positions


def random_matrix(rng: random.Random) -> list[list[int]]:
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    bound = rng.choice([1, 2, 9, 10 ** 6])
    density = rng.random()
    # low rank by construction half the time: rows from a few random rows
    basis = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rng.randint(1, 3))]
    out = []
    for _ in range(rows):
        if rng.random() < 0.5:
            coeffs = [rng.randint(-3, 3) for _ in basis]
            out.append([sum(a * row[j] for a, row in zip(coeffs, basis))
                        for j in range(cols)])
        else:
            out.append([rng.randint(-bound, bound) if rng.random() < density else 0
                        for _ in range(cols)])
    return out


def det(m: list[list[int]]) -> int:
    """Leibniz formula, an oracle for small determinants."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        prod = sign
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += prod
    return total


def adjugate(m: list[list[int]]) -> list[list[int]]:
    k = len(m)
    return [[(-1) ** (i + j) * det([row[:i] + row[i + 1:]
                                    for r, row in enumerate(m) if r != j])
             for j in range(k)] for i in range(k)]


class TestPivotPositions:
    @pytest.mark.parametrize("rows", [
        [], [[]], [[], [], []], [[0]], [[0, 0], [0, 0]], [[5]], [[0, 3], [2, 0]],
        [[2, 4], [1, 2]], [[0, 0, 1], [0, 0, 2], [0, 1, 0]],
    ])
    def test_edge_cases(self, rows):
        assert pivot_positions(rows) == fraction_pivot_positions(rows)

    def test_boundary_matrices(self):
        points = tuple(ball(BASE, 2, 3))
        for size in range(1, MAX_WINDOW_POINTS + 1):
            w = ComplexWindow(points[:size], MAX_DEGREE)
            for n in range(min(size, MAX_DEGREE + 2)):
                m = _boundary_matrix(w, n)
                assert all(type(x) is int for row in m for x in row)
                assert pivot_positions(m) == fraction_pivot_positions(m)

    def test_random_integer_matrices(self):
        rng = random.Random(2024)
        for _ in range(400):
            m = random_matrix(rng)
            assert pivot_positions(m) == fraction_pivot_positions(m)
            assert rank(m) == len(fraction_pivot_positions(m))

    def test_input_left_unchanged(self):
        m = [[2, 3], [4, 5]]
        pivot_positions(m)
        assert m == [[2, 3], [4, 5]]

    def test_non_integer_entries_refused(self):
        with pytest.raises(TypeError):
            pivot_positions([[0.5, 1]])


def sparse_matrix(rng: random.Random, entries: list[int]) -> list[list[int]]:
    rows, cols = rng.randint(0, 12), rng.randint(0, 12)
    density = rng.random()
    out = [[rng.choice(entries) if rng.random() < density else 0
            for _ in range(cols)] for _ in range(rows)]
    # dependent rows half the time
    if rows >= 2 and rng.random() < 0.5:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        out[-1] = [a * x + b * y for x, y in zip(out[0], out[1])]
    return out


def aligned_boundary(points, n: int) -> list[list[int]]:
    """Integer matrix of the degree-n boundary of the aligned complex on
    the points, rows indexed by the aligned n-tuples (by the augmentation
    for n = 0)."""
    dom = aligned_tuples(points, n + 1)
    if n == 0:
        return [[1] * len(dom)]
    cod = {t: i for i, t in enumerate(aligned_tuples(points, n))}
    out = [[0] * len(dom) for _ in cod]
    for col, tup in enumerate(dom):
        for j in range(len(tup)):
            out[cod[tup[:j] + tup[j + 1:]]][col] = -1 if j % 2 else 1
    return out


def reduced_betti(points, degrees: range) -> list[int]:
    """dim C_n - rank d_n - rank d_(n+1) of the aligned complex."""
    points = sorted(points, key=vertex_key)
    ranks = {n: rank(aligned_boundary(points, n))
             for n in range(degrees.start, degrees.stop + 1)}
    return [len(aligned_tuples(points, n + 1)) - ranks[n] - ranks[n + 1]
            for n in degrees]


class TestRank:
    @pytest.fixture
    def residues(self, monkeypatch):
        """The matrices rank hands to pivot_positions, one per call."""
        seen = []

        def spy(rows):
            seen.append([list(row) for row in rows])
            return pivot_positions(rows)

        monkeypatch.setattr(ratmat, "pivot_positions", spy)
        return seen

    def test_sparse_units_and_larger_entries(self):
        rng = random.Random(19)
        for _ in range(600):
            m = sparse_matrix(rng, [-1, 1, -1, 1, 2, -3, 5, 10 ** 6])
            assert rank(m) == len(fraction_pivot_positions(m))

    def test_no_unit_entry_takes_the_fallback_only(self, residues):
        rng = random.Random(20)
        for _ in range(300):
            m = sparse_matrix(rng, [2, -2, 3, -4, 6, 9])
            # a dependent row may combine to +-1; keep such a row off
            m = [r for r in m if 1 not in map(abs, r)]
            assert rank(m) == len(fraction_pivot_positions(m))
            # the nonzero rows, on the columns where some row is nonzero
            live = [j for j in range(len(m[0]) if m else 0) if any(r[j] for r in m)]
            assert residues.pop() == [[r[j] for j in live] for r in m if any(r)]

    def test_units_that_appear_only_after_elimination(self, residues):
        # only the first row has an entry +-1; clearing column 0 with it
        # leaves (0, 1, 0) and (0, -1, 1), so every row pivots on a unit
        m = [[1, 2, 3], [2, 5, 6], [3, 5, 10]]
        assert rank(m) == 3 == len(fraction_pivot_positions(m))
        assert residues == [[]]
        rng = random.Random(21)
        found = 0
        while found < 50:
            # rows k * top + v: the pivot on top's only unit, in column 0,
            # leaves the rows v, each with an entry +-1
            top = [rng.choice([1, -1])] + [rng.choice([0, 2, -2, 3]) for _ in range(4)]
            vs = [[0] + [rng.choice([0, 1, -1, 2]) for _ in range(4)]
                  for _ in range(rng.randint(2, 5))]
            ks = [rng.choice([2, -2, 3]) for _ in vs]
            rows = [top] + [[k * t + x for t, x in zip(top, v)] for k, v in zip(ks, vs)]
            if (not all(1 in map(abs, v) for v in vs)
                    or any(x in (1, -1) for row in rows[1:] for x in row)):
                continue
            found += 1
            residues.clear()
            assert rank(rows) == len(fraction_pivot_positions(rows))
            (residue,) = residues
            assert len(residue) < len(rows) - 1

    def test_input_left_unchanged_and_one_fallback_call(self, residues):
        for m in ([[1, -1, 0], [0, 1, -1], [1, 0, -1]], [[2, 4], [4, 2]], [], [[]]):
            before = [list(row) for row in m]
            residues.clear()
            rank(m)
            assert m == before
            assert len(residues) == 1

    def test_non_integer_entries_refused(self):
        with pytest.raises(TypeError):
            rank([[1, 0.5]])

    def test_aligned_ball_is_acyclic(self):
        # ball(e, 3) at d = 3 is a convex window: its aligned complex has
        # zero reduced homology in every degree checked
        assert reduced_betti(ball(BASE, 3, 3), range(0, 4)) == [0, 0, 0, 0]

    def test_aligned_leaves_are_not(self):
        # no three of these leaves lie on a geodesic, so the aligned
        # complex is the complete graph on four points: H_1 has rank 3
        leaves = [Vertex.parse(t) for t in ("1.2", "1.3", "2.1", "2.3")]
        assert reduced_betti(leaves, range(0, 2)) == [0, 3]


class TestBorder:
    def test_grows_det_and_adjugate(self):
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            d, adj = 1, []
            for size in range(1, k + 1):
                u = m[size - 1][:size - 1]
                c = [row[size - 1] for row in m[:size - 1]]
                new_det, new_adj = border(d, adj, u, c, m[size - 1][size - 1])
                lead = [row[:size] for row in m[:size]]
                assert new_det == det(lead)
                if new_det == 0:
                    assert new_adj is None
                    break
                assert new_adj == adjugate(lead)
                d, adj = new_det, new_adj
