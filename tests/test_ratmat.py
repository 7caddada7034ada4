"""Fraction-free integer elimination against the Fraction oracle."""

import itertools
import random

import pytest

from treelocal.chains import ComplexWindow, MAX_DEGREE, MAX_WINDOW_POINTS, _boundary_matrix
from treelocal.ratmat import border, pivot_positions, rank
from treelocal.tree import BASE, ball

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
