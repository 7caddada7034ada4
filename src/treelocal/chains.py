"""Finite-window alternating chain complexes on vertex sets of T_d.

Chains of degree n are finitely supported rational combinations of
(n+1)-tuples of vertices, taken modulo signed permutation of the
entries; tuples with a repeated vertex are zero.  The boundary is the
usual alternating face sum, with the degree-0 boundary given by
summation of coefficients (the augmentation).

The aligned subcomplex keeps only tuples lying on a common geodesic.
Chain coefficients are exact rationals; boundary ranks are taken on
integer matrices by fraction-free elimination (ratmat).
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import Frozen, HypothesisUnverified, SizeLimitExceeded, TreeLocalError
from .localaction import (
    ENUMERATION_CAP,
    GroupContext,
    build_line,
    edge_transitivity_check,
    rotation_r,
    translation_t,
    transport_into_line,
)
from .autom import Automorphism, power
from .ratmat import rank
from .tree import (
    BASE,
    Segment,
    Vertex,
    ball,
    geodesic,
    geodesic_colors,
    neighbor,
    vertex_key,
)

MAX_WINDOW_POINTS = 6
MAX_DEGREE = 4


def normalize(tup: Sequence[Vertex]) -> Optional[tuple[tuple[Vertex, ...], int]]:
    """Canonical (sorted) form of a tuple with the sign of the sorting
    permutation; None when an entry repeats (the tuple is zero)."""
    if len(set(tup)) != len(tup):
        return None
    keyed = sorted(range(len(tup)), key=lambda i: vertex_key(tup[i]))
    inversions = sum(
        1 for a, b in itertools.combinations(keyed, 2) if a > b)
    sign = -1 if inversions % 2 else 1
    return tuple(tup[i] for i in keyed), sign


class AlternatingChain(NamedTuple):
    degree: int
    terms: dict[tuple[Vertex, ...], Fraction]

    @classmethod
    def build(cls, degree: int,
              raw: Sequence[tuple[Sequence[Vertex], Fraction]]) -> "AlternatingChain":
        acc: dict[tuple[Vertex, ...], Fraction] = {}
        for tup, coeff in raw:
            if len(tup) != degree + 1:
                raise TreeLocalError(
                    f"tuple of {len(tup)} entries in a degree-{degree} chain")
            norm = normalize(tuple(tup))
            if norm is None:
                continue
            key, sign = norm
            acc[key] = acc.get(key, Fraction(0)) + sign * Fraction(coeff)
        return cls(degree, {k: v for k, v in acc.items() if v != 0})

    def is_zero(self) -> bool:
        return not self.terms


def boundary(c: AlternatingChain):
    """The alternating face sum; for degree 0 the augmentation (sum of
    coefficients, a Fraction)."""
    if c.degree == 0:
        return sum(c.terms.values(), Fraction(0))
    raw = []
    for tup, coeff in c.terms.items():
        for j in range(len(tup)):
            face = tup[:j] + tup[j + 1:]
            raw.append((face, coeff if j % 2 == 0 else -coeff))
    return AlternatingChain.build(c.degree - 1, raw)


class ComplexWindow(Frozen):
    __slots__ = _fields = ("points", "max_degree")

    def __init__(self, points: tuple[Vertex, ...], max_degree: int):
        if len(set(points)) != len(points):
            raise TreeLocalError("window points must be distinct")
        if max_degree < 0:
            raise TreeLocalError(f"negative max degree {max_degree}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "max_degree", max_degree)

    def basis(self, n: int) -> list[tuple[Vertex, ...]]:
        pts = sorted(self.points, key=vertex_key)
        return list(itertools.combinations(pts, n + 1))


def _boundary_matrix(w: ComplexWindow, n: int) -> list[list[int]]:
    """Integer matrix of the degree-n boundary in the canonical bases, rows
    indexed by the degree-(n-1) basis (by the augmentation for n = 0)."""
    dom = w.basis(n)
    if n == 0:
        return [[1] * len(dom)]
    cod = {t: i for i, t in enumerate(w.basis(n - 1))}
    out = [[0] * len(dom) for _ in range(len(cod))]
    for col, tup in enumerate(dom):
        for j in range(len(tup)):
            out[cod[tup[:j] + tup[j + 1:]]][col] = -1 if j % 2 else 1
    return out


def exactness_check(w: ComplexWindow) -> bool:
    """Zero reduced homology of the full-simplex complex on the window:
    at each degree the kernel of the boundary equals the image of the
    next boundary, with the augmentation at the bottom."""
    if len(w.points) > MAX_WINDOW_POINTS:
        raise SizeLimitExceeded(
            f"{len(w.points)} points exceed cap {MAX_WINDOW_POINTS}")
    if w.max_degree > MAX_DEGREE:
        raise SizeLimitExceeded(f"degree {w.max_degree} exceeds cap {MAX_DEGREE}")
    # a degree-n tuple has n + 1 entries, so past the points there are none
    ranks = [rank(_boundary_matrix(w, n)) if n < len(w.points) else 0
             for n in range(w.max_degree + 2)]
    return all(len(w.basis(n)) - ranks[n] == ranks[n + 1]
               for n in range(w.max_degree + 1))


def aligned_tuples(points: Sequence[Vertex], size: int) -> list[tuple[Vertex, ...]]:
    """The size-subsets of the (distinct) points that lie on a common
    geodesic, in the order of itertools.combinations(points, size).

    A geodesic tuple of three or more points has exactly one extreme pair,
    the two points farthest apart, and all the others lie strictly between
    them.  So each such tuple arises exactly once as an extreme pair plus
    size - 2 of the points inside the pair's geodesic.
    """
    if size < 1:
        raise TreeLocalError("an aligned tuple needs at least one point")
    if size <= 2:
        return list(itertools.combinations(points, size))
    index = {p: i for i, p in enumerate(points)}
    found = []
    for i, j in itertools.combinations(range(len(points)), 2):
        inside = [index[v] for v in geodesic(points[i], points[j]).vertices()[1:-1]
                  if v in index]
        for between in itertools.combinations(inside, size - 2):
            found.append(tuple(sorted((i, j) + between)))
    found.sort()
    return [tuple(points[k] for k in tup) for tup in found]


def aligned_count_bound(N: int, R: int, n: int) -> int:
    """An upper bound on the aligned (n+1)-tuples among N points of a ball
    of radius R: N for n = 0, and otherwise comb(N, 2) extreme pairs times
    the choices of n - 1 among the at most 2R - 1 vertices strictly inside
    the pair's geodesic."""
    if n < 1:
        return N if n == 0 else 0
    return math.comb(N, 2) * math.comb(max(2 * R - 1, 0), n - 1)


def aligned_basis(w: ComplexWindow, n: int) -> list[tuple[Vertex, ...]]:
    if len(w.points) > MAX_WINDOW_POINTS:
        raise SizeLimitExceeded(
            f"{len(w.points)} points exceed cap {MAX_WINDOW_POINTS}")
    return aligned_tuples(sorted(w.points, key=vertex_key), n + 1)


def aligned_closure_check(w: ComplexWindow, n: int) -> bool:
    """The boundary of an aligned tuple is supported on aligned tuples
    (faces of a geodesic-contained tuple stay on the geodesic)."""
    if n == 0:
        return True
    aligned = set(aligned_basis(w, n - 1))
    for tup in aligned_basis(w, n):
        chain = AlternatingChain.build(n, [(tup, Fraction(1))])
        for face in boundary(chain).terms:
            if face not in aligned:
                return False
    return True


def random_chain(w: ComplexWindow, n: int, rng: random.Random) -> AlternatingChain:
    """A degree-n chain of up to 5 random terms of the window's basis."""
    basis = w.basis(n)
    raw = []
    for _ in range(min(5, len(basis))):
        tup = list(rng.choice(basis))
        rng.shuffle(tup)
        raw.append((tuple(tup), Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
    return AlternatingChain.build(n, raw)


def _distance_rows(points: Sequence[Vertex]) -> Iterator[list[int]]:
    """For each i, the distances from points[i] to points[i + 1:].

    The points must be convex and listed by distance from points[0], as
    ball lists a ball.  Then the neighbor of each later point toward
    points[0] comes before it, and the step from that neighbor to the
    point nears a = points[i] exactly when the point lies on [points[0],
    a].  So a row is one pass over the points, with no distance call."""
    order = {p: k for k, p in enumerate(points)}
    parent = [0] + [order[neighbor(p, next(geodesic_colors(p, points[0])))]
                    for p in points[1:]]
    for i in range(len(points)):
        on_path, k = {0}, i
        while k:
            on_path.add(k)
            k = parent[k]
        dist = [len(on_path) - 1]
        for j in range(1, len(points)):
            dist.append(dist[parent[j]] + (-1 if j in on_path else 1))
        yield dist[i + 1:]


def _aligned_sample(points: Sequence[Vertex], size: int, cap: int,
                    rng: random.Random) -> list[tuple[tuple[Vertex, ...], Segment]]:
    """Up to cap aligned size-tuples of the points, each with its span
    (the geodesic of its extreme pair), drawn uniformly without
    replacement by rank; all of them when there are at most cap.

    The points must be a convex set listed in ball order, such as a ball.
    Then the geodesic of any two holds all d(a, b) - 1 vertices strictly
    inside it, so the pair (a, b), as the extreme pair, spans
    comb(d(a, b) - 1, size - 2) tuples (one when size is 2; a single
    point spans the length-0 geodesic [v, v]).  The ranks run pair-major
    over itertools.combinations(points, 2), whose weights come a row at a
    time from _distance_rows.  A rank is mapped to its pair by bisection
    on the cumulative weights and to the inside vertices by their
    combination of that rank, so the window's tuples are never listed.
    Entries keep the order of points, and the tuples are sorted by it:
    with at most cap tuples, the list is aligned_tuples(points, size).

    Each drawn span is walked once, here, and keeps its walk (Segment
    caches it), so a transport of the span reads the same vertices.
    """
    if size < 1:
        raise TreeLocalError("an aligned tuple needs at least one point")
    if size == 1:
        pairs, weights = [(p, p) for p in points], [1] * len(points)
    else:
        pairs = list(itertools.combinations(points, 2))
        weights = [math.comb(x - 1, size - 2)
                   for row in _distance_rows(points) for x in row]
    ends = list(itertools.accumulate(weights))
    total = ends[-1] if ends else 0
    picks = range(total) if total <= cap else rng.sample(range(total), cap)
    order = {p: i for i, p in enumerate(points)}
    drawn = []
    for k in picks:
        i = bisect.bisect_right(ends, k)
        a, b = pairs[i]
        span = geodesic(a, b)
        between = next(itertools.islice(
            itertools.combinations(span.vertices()[1:-1], max(size - 2, 0)),
            k - (ends[i - 1] if i else 0), None))
        drawn.append((tuple(sorted(order[v] for v in {a, b, *between})), span))
    drawn.sort(key=lambda entry: entry[0])
    # tuples of lists, for the reason tree.geodesic gives
    return [(tuple([points[j] for j in key]), span) for key, span in drawn]


def restriction_correspondence_check(ctx: GroupContext, window_radius: int,
                                     n: int, sample_cap: int = 120,
                                     seed: int = 0) -> dict:
    """Constructive check, on aligned (n+1)-tuples within a ball, of the
    correspondence between aligned tuples and tuples on the line L of
    build_line:

    - every aligned tuple is carried into L by a transport of its
      spanning segment (with even displacement);
    - two different transports of the same tuple differ by a power of
      the translation t along L (their anchor indices have matching
      parity), verified on the tuple images.

    The second transport is t g for the first transport g, whose images
    are t's of the first images, as (t g)(v) = t(g(v)).  Its anchor index
    is therefore always two past the first's, h is t itself, and
    ``consistent`` equals ``transported`` by construction.

    The sample (_aligned_sample) is uniform without replacement, and no
    list of the window is built.  Its ranks run pair-major, so a seed
    selects other tuples than a draw from the list aligned_tuples would;
    the report holds only counts and failures.

    Requires the hypotheses: F' 2-transitive and the stabilizer of L
    edge-transitive on a window (checked here via t and r).  A window
    whose aligned tuples could exceed ENUMERATION_CAP (by
    aligned_count_bound) raises SizeLimitExceeded before any is built.
    Past n = 2 window_radius the ball holds no aligned (n+1)-tuple (a
    geodesic in it has at most 2 window_radius + 1 vertices), and a check
    of nothing raises TreeLocalError before the line is built.
    """
    if not ctx.two_transitive:
        raise HypothesisUnverified("F' must be 2-transitive")
    points = list(ball(BASE, window_radius, ctx.d))
    if n > 2 * window_radius:
        raise TreeLocalError(
            f"a ball of radius {window_radius} holds no aligned tuple of "
            f"degree {n} ({n + 1} points)")
    bound = aligned_count_bound(len(points), window_radius, n)
    if bound > ENUMERATION_CAP:
        raise SizeLimitExceeded(
            f"up to {bound} aligned tuples of {n + 1} points in a ball of "
            f"radius {window_radius} exceed ENUMERATION_CAP {ENUMERATION_CAP}")
    L = build_line(ctx)
    t = translation_t(ctx, L)
    r = rotation_r(ctx, L)
    if not edge_transitivity_check(L, [t, r], max(4, window_radius)):
        raise HypothesisUnverified("line stabilizer not edge-transitive on window")

    sample = _aligned_sample(points, n + 1, sample_cap, random.Random(seed))
    # the stabilizer element of each shift, built on first use
    shifts: dict[int, Automorphism] = {}
    transported = 0
    consistent = 0
    failures: list[str] = []
    for tup, span in sample:
        g = transport_into_line(ctx, span, L)
        images = [g.apply(v) for v in tup]
        idx = [L.index_of(x) for x in images]
        if any(i is None for i in idx):
            failures.append(f"tuple {tup} not carried into L")
            continue
        transported += 1
        # second, shifted transport t g: its images are t's of the first
        images2 = [t.apply(x) for x in images]
        x0 = g.apply(span.start)
        j = L.index_of(x0)
        j2 = L.index_of(t.apply(x0))
        if (j2 - j) % 2 != 0:
            failures.append(f"tuple {tup}: parity mismatch between transports")
            continue
        h = shifts.get(j2 - j)
        if h is None:
            h = shifts[j2 - j] = power(t, (j2 - j) // 2)
        if all(h.apply(x) == y for x, y in zip(images, images2)):
            consistent += 1
        else:
            failures.append(f"tuple {tup}: stabilizer element does not match")
    return {
        "tuples_checked": len(sample),
        "transported": transported,
        "consistent": consistent,
        "failures": failures,
    }
