"""Shared fixtures: validated group contexts and random element builders."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from treelocal.analysis import validate_inputs
from treelocal.autom import (
    Compose,
    Diagonal,
    Inverse,
    SegmentPortrait,
    SubtreeDiagonal,
    WordTranslation,
)
from treelocal.localaction import GroupContext
from treelocal.permgroups import (
    PermGroup,
    Permutation,
    all_subgroups,
    find_mapping,
    generate,
    preserves_orbits,
    symmetric_group,
    trivial_group,
)
from treelocal.errors import NotTwoTransitive, TreeLocalError
from treelocal.tree import (
    BASE,
    Segment,
    Vertex,
    ball,
    distance,
    neighbor,
    reduced_words,
)


# The pairs whose F' fixes one color and is 2-transitive on the others:
# their nonvanishing witnesses need segments of length 6 and words of 9.
FIXED_COLOR_PAIRS = [
    pytest.param(4, ["(2 3 4)"], ["(2 3 4)", "(2 3)"], id="d4-fixes-1"),
    pytest.param(4, ["(1 3 4)"], ["(1 3 4)", "(1 3)"], id="d4-fixes-2"),
    pytest.param(4, ["(1 2 4)"], ["(1 2 4)", "(1 2)"], id="d4-fixes-3"),
    pytest.param(4, ["(1 2 3)"], ["(1 2 3)", "(1 2)"], id="d4-fixes-4"),
    pytest.param(5, ["(2 3)(4 5)", "(2 4)(3 5)"], ["(2 3 4 5)", "(2 3)"],
                 id="d5-fixes-1"),
]


@pytest.fixture(scope="session")
def ctx3() -> GroupContext:
    """(d=3, F = rotations, F' = Sym(3)); F' is 2-transitive."""
    _, ctx = validate_inputs(3, ["(1 2 3)"], ["(1 2 3)", "(1 2)"])
    assert ctx is not None
    return ctx


@pytest.fixture(scope="session")
def ctx4() -> GroupContext:
    """(d=4, F = <4-cycle>, F' = Sym(4)); F' is 2-transitive."""
    _, ctx = validate_inputs(4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 2)"])
    assert ctx is not None
    return ctx


@pytest.fixture(scope="session")
def ctxd4() -> GroupContext:
    """(d=4, F = <4-cycle>, F' = dihedral); F' transitive, not 2-transitive."""
    _, ctx = validate_inputs(4, ["(1 2 3 4)"], ["(1 2 3 4)", "(1 3)"])
    assert ctx is not None
    return ctx


@pytest.fixture(scope="session")
def ctxi4() -> GroupContext:
    """(d=4, F = <(1 2)(3 4)>, F' = <(1 2), (3 4)>); F' intransitive."""
    _, ctx = validate_inputs(4, ["(1 2)(3 4)"], ["(1 2)", "(3 4)"])
    assert ctx is not None
    return ctx


def valid_contexts(d: int) -> list[GroupContext]:
    """All contexts (F, F') over degree d: proper subgroup pairs with F'
    preserving the F-orbits."""
    subs = all_subgroups(d)
    out = []
    for F in subs:
        for Fp in subs:
            if (F.is_subgroup_of(Fp) and F.order < Fp.order
                    and preserves_orbits(F, Fp)):
                out.append(GroupContext(d, F, Fp))
    return out


def closure_subgroups(d: int) -> list[PermGroup]:
    """all_subgroups by closing every generator tuple of size <= 2 with
    generate, an oracle for the closures on the multiplication table:
    trivial first, then singletons and pairs of the sorted elements in
    combinations order, each group kept with the first tuple that
    generates it."""
    seen: dict[frozenset, PermGroup] = {}
    triv = trivial_group(d)
    seen[frozenset(triv.elements)] = triv
    pool = list(symmetric_group(d).elements)
    for r in (1, 2):
        for gens in itertools.combinations(pool, r):
            G = generate(gens, d)
            key = frozenset(G.elements)
            if key not in seen:
                seen[key] = G
    return sorted(seen.values(), key=lambda G: (G.order, G.elements))


class SlotwiseMatcher:
    """The slotwise definition of matchability, an oracle for
    colors_matchable: a matches b iff every slot i = 0..n has some rho in
    F' with rho(a_{i-1}) = b_{i-1} and rho(a_i) = b_i (the constraints that
    exist at the slot), each slot solved by find_mapping.  Answers are
    cached per instance."""

    def __init__(self, ctx: GroupContext):
        self.ctx = ctx
        self.cache: dict = {}

    def __call__(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        hit = self.cache.get((a, b))
        if hit is None:
            n = len(a)
            hit = self.cache[a, b] = all(
                find_mapping(self.ctx.Fp,
                             [(a[j], b[j]) for j in (i - 1, i) if 0 <= j < n])
                is not None
                for i in range(n + 1))
        return hit


def pairwise_census(match: SlotwiseMatcher, n: int) -> list[tuple[int, ...]]:
    """Census by the pairwise scan: a sequence is a new representative
    when it matches none found before it."""
    reps: list[tuple[int, ...]] = []
    for seq in reduced_words(match.ctx.d, n):
        if not any(match(seq, rep) for rep in reps):
            reps.append(seq)
    return reps


def scan_transport_into_line(ctx: GroupContext, s: Segment, L):
    """The radius scan that transport_into_line replaced, an oracle for
    it: try the anchor indices 0, 1, -1, 2, -2, ... up to radius 63 and
    take the first of even displacement whose slots all solve (least
    element of F, else of F', per slot).  Returns (index, element), or
    None when the scan finds nothing."""
    n = s.length
    for radius in range(0, 64):
        for j in ([0] if radius == 0 else [radius, -radius]):
            if distance(s.start, L.vertex(j)) % 2 != 0:
                continue
            target = Segment(L.vertex(j),
                             tuple(L.edge_color(j + i) for i in range(1, n + 1)))
            sigmas = []
            for i in range(n + 1):
                cons = [(s.colors[k], target.colors[k])
                        for k in (i - 1, i) if 0 <= k < n]
                rho = find_mapping(ctx.F, cons) or find_mapping(ctx.Fp, cons)
                if rho is None:
                    break
                sigmas.append(rho)
            else:
                return j, SegmentPortrait(s.vertices(), target.vertices(),
                                          sigmas, ctx.F)
    return None


def vertex_transport_into_line(ctx: GroupContext, s: Segment, L):
    """transport_into_line as it read the line before the sliced read, an
    oracle for it: the parity against L.vertex(0), each image one
    LineSpec.vertex call and each line color one edge_color call, and
    each slot key a tuple of a slice of a flat list (least element of F,
    else of F')."""
    if not ctx.two_transitive:
        raise NotTwoTransitive("transport into a line needs F' 2-transitive")
    j = distance(s.start, L.vertex(0)) % 2
    steps = range(j + 1, j + s.length + 1)
    colors = [L.edge_color(i) for i in steps]
    flat = [x for pair in zip(s.colors, colors) for x in pair]
    sigmas = []
    for i in range(0, len(flat) + 1, 2):
        key = tuple(flat[max(i - 2, 0):i + 2])
        sigmas.append(ctx.F.least(key) or ctx.Fp.least(key))
    return SegmentPortrait(s.vertices(), [L.vertex(j)] + [L.vertex(i) for i in steps],
                           sigmas, ctx.F)


def distance_filter_ball(v: Vertex, R: int, d: int) -> list[Vertex]:
    """ball(v, R) by the breadth-first search that keeps a neighbor w of
    a frontier vertex u when d(w, v) > d(u, v), an oracle for ball."""
    out = [v]
    frontier = [v]
    for _ in range(R):
        fresh = []
        for u in frontier:
            for k in range(1, d + 1):
                w = neighbor(u, k)
                if distance(w, v) > distance(u, v):
                    fresh.append(w)
        out.extend(fresh)
        frontier = fresh
    return out


def fraction_pivot_positions(rows) -> list[tuple[int, int]]:
    """ratmat.pivot_positions by elimination over Fraction, an oracle for
    the fraction-free elimination: the same pivot rule (the first nonzero
    entry at or below the current row), so the same (row, column) pairs."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    order = list(range(len(m)))
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        order[r], order[pivot] = order[pivot], order[r]
        pivots.append((order[r], c))
        inv = Fraction(1) / m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] * inv
                for j in range(c, ncols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == len(m):
            break
    return pivots


def distance_index_of(L, v: Vertex):
    """LineSpec.index_of by distance: v can only be v_n or v_-n for
    n = d(v_0, v), an oracle for the index lookup."""
    n = distance(L.anchor, v)
    if L.vertex(n) == v:
        return n
    if L.vertex(-n) == v:
        return -n
    return None


def random_reduced_word(rng: random.Random, d: int, length: int) -> Vertex:
    out: list[int] = []
    for _ in range(length):
        k = rng.randint(1, d)
        while out and out[-1] == k:
            k = rng.randint(1, d)
        out.append(k)
    return Vertex(tuple(out))


def random_permutation(rng: random.Random, d: int) -> Permutation:
    images = list(range(1, d + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_primitive(rng: random.Random, d: int):
    kind = rng.randrange(4)
    if kind == 0:
        return WordTranslation(Vertex(), d)
    if kind == 1:
        return WordTranslation(random_reduced_word(rng, d, rng.randint(1, 3)), d)
    if kind == 2:
        return Diagonal(random_permutation(rng, d))
    u = random_reduced_word(rng, d, rng.randint(1, 2))
    pi = random_permutation(rng, d)
    images = list(pi)
    j = images.index(u[-1])
    images[j], images[u[-1] - 1] = images[u[-1] - 1], u[-1]
    return SubtreeDiagonal(u, Permutation(images))


def random_composite(rng: random.Random, d: int, depth: int):
    """A random expression tree of primitives, composites and inverses."""
    if depth == 0:
        return random_primitive(rng, d)
    kind = rng.randrange(3)
    if kind == 0:
        return Compose(random_composite(rng, d, depth - 1),
                       random_composite(rng, d, depth - 1))
    if kind == 1:
        return Inverse(random_composite(rng, d, depth - 1))
    return random_primitive(rng, d)


def moved_set(g, window) -> list[Vertex]:
    """The vertices of the window that g moves."""
    return [v for v in window if g.apply(v) != v]


def conjugate_support_shift_check(a, b, window) -> bool:
    """The moved set of a^-1 b a on the window equals the a-preimage of the
    moved set of b on the a-image of the window."""
    conj = Compose(Inverse(a), Compose(b, a))
    lhs = set(moved_set(conj, window))
    a_inv = Inverse(a)
    rhs = {a_inv.apply(v) for v in moved_set(b, [a.apply(w) for w in window])}
    return lhs == rhs


def equal_on_ball(g, h, R: int) -> bool:
    """Whether g and h agree on every vertex of ball(BASE, R)."""
    if g.d != h.d:
        raise TreeLocalError(f"degree mismatch {g.d} vs {h.d}")
    return all(g.apply(v) == h.apply(v) for v in ball(BASE, R, g.d))
