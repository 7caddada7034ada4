"""Exact rank of integer matrices by fraction-free elimination.

:func:`rank` first pivots on the entries +-1 of sparse rows, then hands
what is left to :func:`pivot_positions`, for small dense matrices.
Elimination there follows Bareiss ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968): after k
pivot steps every entry below the pivot rows is a (k+1)-minor of the
input, so each update divides exactly by the previous pivot and all
arithmetic stays in Python ints.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q.  In passes over the rows until none has an entry +-1,
    each row with one pivots on its first +-1 and clears that column from
    every other row.  Adding an integer multiple of one row to another is
    unimodular, and the pivot row is then the only one with an entry in
    its column, so each pivot adds exactly 1 to the rank of the rows left.
    The rows left, possibly none, go to pivot_positions.  Entries must be
    ints (TypeError otherwise); the input is not changed."""
    sparse = [{j: x for j, x in enumerate(map(operator.index, row)) if x}
              for row in rows]
    units = 0
    found = True
    while found:
        found = False
        for top in sparse:
            c = next((j for j, x in top.items() if x == 1 or x == -1), None)
            if c is None:
                continue
            found = True
            units += 1
            s = top[c]
            rest = [(j, x * s) for j, x in top.items() if j != c]
            top.clear()
            for row in sparse:
                f = row.pop(c, 0)
                if not f:
                    continue
                for j, x in rest:
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
    left = sorted({j for row in sparse for j in row})
    return units + len(pivot_positions(
        [[row.get(j, 0) for j in left] for row in sparse if row]))


def pivot_positions(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """(row, column) pivot pairs of a row-echelon reduction, in original
    row indices; the pivot rows are independent and the square submatrix
    on (pivot rows) x (pivot columns) is invertible.  The pivot of column c
    is its first nonzero entry at or below the current row.  Entries must
    be ints (TypeError otherwise)."""
    m = [list(map(operator.index, row)) for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    order = list(range(len(m)))
    pivots: list[tuple[int, int]] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        order[r], order[pivot] = order[pivot], order[r]
        pivots.append((order[r], c))
        top = m[r]
        p = top[c]
        # every row below is scaled by p / prev, also where its entry in
        # column c is 0, so that the next division is exact
        for row in m[r + 1:]:
            a = row[c]
            if not a and p == prev:
                continue
            for j in range(c + 1, ncols):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
        r += 1
        if r == len(m):
            break
    return pivots


def border(det: int, adj: Sequence[Sequence[int]], u: Sequence[int],
           c: Sequence[int], h: int) -> tuple[int, Optional[list[list[int]]]]:
    """Determinant and adjugate of the bordered matrix M = [[A, c], [u, h]]
    from det A != 0 and adj A (det 1 and [] when A is 0x0).

    By the Schur complement, det M = det A * h - u adj(A) c, an O(k^2)
    test of whether M is invertible.  When it is, the adjugate is
    [[(det M adj A + adj(A) c u adj(A)) / det A, -adj(A) c],
    [-u adj(A), det A]], whose first block divides exactly; when it is
    not, the adjugate is None."""
    k = len(adj)
    adj_c = [sum(map(operator.mul, row, c)) for row in adj]
    new_det = det * h - sum(map(operator.mul, u, adj_c))
    if new_det == 0:
        return 0, None
    u_adj = [sum(u[i] * adj[i][j] for i in range(k)) for j in range(k)]
    out = [[(new_det * adj[i][j] + adj_c[i] * u_adj[j]) // det for j in range(k)]
           + [-adj_c[i]] for i in range(k)]
    out.append([-x for x in u_adj] + [det])
    return new_det, out
