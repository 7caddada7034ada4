"""Explicit constructions inside the groups G(F,F').

G(F,F') consists of the tree automorphisms whose local permutations lie
in F' everywhere and in F at all but finitely many vertices, for a pair
F <= F' of subgroups of Sym({1..d}) such that F' preserves the F-orbits.

This module builds the concrete witnesses the theory turns on: a colored
periodic line, a translation by 2 and a rotation stabilizing it, segment
transport elements, matchability of segments as equality of F'-orbital
words, and the obstruction/escape witnesses that separate the
2-transitive case from the rest (F' is 2-transitive iff it has exactly
one orbital on ordered pairs of distinct points).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional, Sequence

from .errors import (
    ConstraintUnsolvable,
    IncompatibleSigma,
    InconsistentPortrait,
    LengthMismatch,
    NotStabilizing,
    NotTwoTransitive,
    OutOfRange,
    SizeLimitExceeded,
    TreeLocalError,
)
from .permgroups import (
    PermGroup,
    Permutation,
    orbits,
    pick_tau,
    preserves_orbits,
    stabilizer,
)
from .autom import (
    Automorphism,
    Inverse,
    LinePortrait,
    SegmentPortrait,
    WordTranslation,
)
from .tree import (
    BASE,
    EventuallyPeriodic,
    LineSpec,
    Segment,
    Vertex,
    distance,
    neighbor,
    reduce_word,
    reduced_words,
)


#: Cap on the sequences or words that a census or a search enumerates.
ENUMERATION_CAP = 100000


class GroupContext:
    """A validated pair F < F' < Sym({1..d}) with F' preserving F-orbits.

    == and repr read d, F and F' only; a context is mutable, so it has no
    hash."""

    def __init__(self, d: int, F: PermGroup, Fp: PermGroup):
        if d < 3:
            raise TreeLocalError(f"degree {d} < 3")
        if F.degree != d or Fp.degree != d:
            raise TreeLocalError("group degrees do not match d")
        if not F.is_subgroup_of(Fp):
            raise TreeLocalError("F must be a subgroup of F'")
        if F.order == Fp.order:
            raise TreeLocalError("F must be a proper subgroup of F'")
        if not preserves_orbits(F, Fp):
            raise TreeLocalError("F' must preserve the orbits of F")
        self.d, self.F, self.Fp = d, F, Fp
        # F'-orbital of every ordered pair (x, y), numbered by first pair met
        self.orbital: dict[tuple[int, int], int] = {}
        ident = itertools.count()
        for x, y in itertools.product(range(1, d + 1), repeat=2):
            if (x, y) not in self.orbital:
                k = next(ident)
                for rho in Fp.elements:
                    self.orbital[rho(x), rho(y)] = k
        # F' is 2-transitive iff the pairs x != y all lie in one orbital
        self.two_transitive = len({k for (x, y), k in self.orbital.items()
                                   if x != y}) == 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.F, self.Fp) == (other.d, other.F, other.Fp)

    def __repr__(self):
        return f"GroupContext(d={self.d!r}, F={self.F!r}, Fp={self.Fp!r})"

    def orbital_word(self, a: Sequence[int]) -> tuple[int, ...]:
        """The orbitals of the consecutive pairs (a_{i-1}, a_i), i >= 1;
        for a single color, the orbital of (a_0, a_0), that is its F'-orbit."""
        try:
            if len(a) == 1:
                return (self.orbital[a[0], a[0]],)
            return tuple(self.orbital[x, y] for x, y in zip(a, a[1:]))
        except KeyError:
            raise OutOfRange(f"colors {list(a)} outside 1..{self.d}") from None


# --- matchability of color sequences ---


def colors_matchable(ctx: GroupContext, a: tuple[int, ...],
                     b: tuple[int, ...]) -> bool:
    """True iff there are rho_0..rho_n in F' with rho_{i-1}(a_i) = b_i and
    rho_i(a_i) = b_i for every i, that is iff a and b have the same
    F'-orbital word.

    The slots are independent, each carrying at most two constraints.
    Slot i (0 < i < n) asks for rho in F' with rho(a_{i-1}, a_i) =
    (b_{i-1}, b_i): the two pairs lie in one orbital.  The end slots ask
    only rho(a_0) = b_0 and rho(a_{n-1}) = b_{n-1}, which their neighbours
    imply when n >= 2; for n = 1 both ask that a_0 and b_0 lie in one
    F'-orbit, and a diagonal orbital (x, x) is exactly a point orbit.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    return ctx.orbital_word(a) == ctx.orbital_word(b)


def is_translate(ctx: GroupContext, s: Segment, s2: Segment) -> bool:
    """Whether some element of G(F,F') carries s onto s2 as oriented
    segments.

    Soundness: restricting such an element to s gives the slot
    permutations.  Completeness: a slotwise match extends to a global
    element because F' preserves F-orbits, so every off-segment vertex
    gets a valid least-F fill.  Start vertices are irrelevant: word
    translations are color-transparent and act transitively on vertices.
    """
    return colors_matchable(ctx, s.colors, s2.colors)


def is_translate_bruteforce(ctx: GroupContext, s: Segment, s2: Segment) -> bool:
    """Oracle for is_translate: exhaust all |F'|^(n+1) slot assignments."""
    a, b = s.colors, s2.colors
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    n = len(a)

    def rec(i: int, prev: Optional[Permutation]) -> bool:
        if i > n:
            return True
        for rho in ctx.Fp.elements:
            if i >= 1 and (prev(a[i - 1]) != b[i - 1] or rho(a[i - 1]) != b[i - 1]):
                continue
            if rec(i + 1, rho):
                return True
        return False

    return rec(0, None)


# --- transport ---


def _slot(ctx: GroupContext, cons: Sequence[tuple[int, int]],
          preferred: Sequence[Permutation] = ()) -> Permutation:
    """The permutation of one slot, sending x to y for each (x, y) in
    cons: the first preferred candidate in F' that does, else the least
    such element of F, else the least of F'."""
    for cand in preferred:
        if cand in ctx.Fp and all(cand(x) == y for x, y in cons):
            return cand
    key = tuple(itertools.chain.from_iterable(cons))
    sol = ctx.F.least(key) or ctx.Fp.least(key)
    if sol is None:
        raise ConstraintUnsolvable(f"no F' element satisfies {cons}")
    return sol


def segment_transport(ctx: GroupContext, s: Segment,
                      s2: Segment) -> Optional[Automorphism]:
    """An element of G(F,F') carrying s onto s2 vertex by vertex, when one
    exists (equivalently, when is_translate holds): the extension of the
    solved slots, slot i sending a_{i-1} to b_{i-1} and a_i to b_i where
    those exist."""
    if s.length != s2.length:
        raise LengthMismatch(f"{s.length} vs {s2.length}")
    return _transport(ctx, s, s2.colors, s2.vertices())


def _transport(ctx: GroupContext, s: Segment, colors: Sequence[int],
               images: Sequence[Vertex]) -> Optional[Automorphism]:
    """segment_transport onto the walk images with step colors colors.
    Slot i solves the constraints of steps i - 1 and i as _slot does with
    no preferred candidate: the least element of F, else of F'."""
    # a_0, b_0, a_1, b_1, ...: a tuple of known length (see tree.geodesic),
    # whose slices are the slot keys
    flat = [0] * (2 * len(colors))
    flat[::2], flat[1::2] = s.colors, colors
    flat = tuple(flat)
    least, least_p = ctx.F.least, ctx.Fp.least
    sigmas = []
    for i in range(0, len(flat) + 1, 2):
        key = flat[i - 2 if i else 0:i + 2]
        sol = least(key) or least_p(key)
        if sol is None:
            return None
        sigmas.append(sol)
    # each slot lies in F or F', so the portrait only checks consistency
    try:
        return SegmentPortrait(s.vertices(), images, sigmas, ctx.F)
    except InconsistentPortrait as exc:
        raise IncompatibleSigma(str(exc)) from exc


def transport_into_line(ctx: GroupContext, s: Segment, L: LineSpec) -> Automorphism:
    """Send s onto the line L at indices j..j+n: j = 0, or j = 1 when
    d(s.start, v_0) is odd, so that the start vertex moves an even
    distance (v_0 and v_1 are adjacent).

    Lemma: if F' is 2-transitive, every slot is solvable.  Segment and
    line colors never backtrack, so each slot asks F' to map one pair of
    distinct points to another pair of distinct points (or, at an end,
    one point to another).  The first index of even displacement is
    therefore always taken.  The images v_j..v_{j+n} are one slice of
    the walked line, and the skeleton is the walk s keeps, so a span
    already walked is not walked again.
    """
    if not ctx.two_transitive:
        raise NotTwoTransitive("transport into a line needs F' 2-transitive")
    j = distance(s.start, L.anchor) % 2
    term = L.forward.term
    return _transport(ctx, s, [term(i) for i in range(j + 1, j + s.length + 1)],
                      L.forward_slice(j, j + s.length + 1))


# --- the line, its translation and rotation ---


def build_line(ctx: GroupContext) -> LineSpec:
    """The periodic colored line determined by the canonical choice of a
    nontrivial permutation tau in F with longest cycle (n_1 ... n_k).

    For k = 2 the edge colors alternate n_1, n_2 in both directions with
    edge (v_-1, v_0) colored n_1 and (v_0, v_1) colored n_2.  For k >= 3
    the backward side alternates n_1, n_2 starting with n_1 and the
    forward side alternates n_2, n_3 starting with n_2.
    """
    _, cycle = pick_tau(ctx.F)
    if len(cycle) == 2:
        n1, n2 = cycle[0], cycle[1]
        forward = EventuallyPeriodic((), (n2, n1))
        backward = EventuallyPeriodic((), (n1, n2))
    else:
        n1, n2, n3 = cycle[0], cycle[1], cycle[2]
        forward = EventuallyPeriodic((), (n2, n3))
        backward = EventuallyPeriodic((), (n1, n2))
    return LineSpec(BASE, forward, backward)


def translation_t(ctx: GroupContext, L: LineSpec) -> Automorphism:
    """The translation v_i -> v_{i+2} along L.  The local permutation at
    v_i must send the line colors e(i), e(i+1) to e(i+2), e(i+3).  The
    slot takes the least compatible element of F, falling back to F'; by
    periodicity that is the identity except near the seam of the two
    periodic sides."""

    @functools.cache
    def sigma_at(i: int) -> Permutation:
        return _slot(ctx, [(L.edge_color(i), L.edge_color(i + 2)),
                           (L.edge_color(i + 1), L.edge_color(i + 3))])

    return LinePortrait(L, (1, 2), sigma_at, ctx.F)


def rotation_r(ctx: GroupContext, L: LineSpec) -> Automorphism:
    """The rotation v_i -> v_{-i} fixing v_0.  At v_0 the local
    permutation swaps the two line colors (an F' slot); along the rest of
    the line the solver prefers powers of the tau of build_line and
    otherwise takes the least compatible element of F, falling back to
    F'."""
    tau, _ = pick_tau(ctx.F)

    @functools.cache
    def sigma_at(i: int) -> Permutation:
        return _slot(ctx, [(L.edge_color(i), L.edge_color(1 - i)),
                           (L.edge_color(i + 1), L.edge_color(-i))],
                     [tau.power(i), tau.power(-i)])

    order = math.lcm(*map(len, tau.cycles()))
    return LinePortrait(L, (-1, 0), sigma_at, ctx.F, m=order)


def edge_transitivity_check(L: LineSpec, generators: Sequence[Automorphism],
                            window: int) -> bool:
    """Whether words of length <= window in the generators act transitively
    on the geometric edges of L with indices in [-window, window].

    Edge i is the pair (v_{i-1}, v_i).  Each generator must stabilize L
    setwise on the checked window.
    """
    if not generators:
        return False
    span = 3 * window
    moves = []
    for g in generators:
        for h in (g, Inverse(g)):
            index_map: dict[int, int] = {}
            for i in range(-span - 1, span + 1):
                j = L.index_of(h.apply(L.vertex(i)))
                if j is None:
                    if -window <= i <= window:
                        raise NotStabilizing(
                            f"{g.describe()} moves v_{i} off the line")
                    continue
                index_map[i] = j
            moves.append(index_map)

    def edge_image(mv: dict[int, int], i: int) -> Optional[int]:
        a, b = mv.get(i - 1), mv.get(i)
        if a is None or b is None or abs(a - b) != 1:
            return None
        return max(a, b)

    orbit = {0}
    frontier = [0]
    for _ in range(window):
        fresh = []
        for i in frontier:
            for mv in moves:
                j = edge_image(mv, i)
                if j is not None and abs(j) <= span and j not in orbit:
                    orbit.add(j)
                    fresh.append(j)
        frontier = fresh
    return all(i in orbit for i in range(-window, window + 1))


# --- witnesses for the non-2-transitive branch ---


def boundary_escape_witness(d: int) -> tuple[Automorphism, int]:
    """A color-preserving element g moving a ray off itself.

    The ray gamma repeats the color pattern (1, 2) three times, so the
    vertices gamma(1) and gamma(3) see identical colorings; g is the word
    translation taking gamma(1) to a vertex w hanging off gamma(3), and
    the returned radius bounds where the divergence is visible.
    """
    if d < 3:
        raise TreeLocalError(f"degree {d} < 3")
    colors = (1, 2) * 3
    gamma = Segment(BASE, colors)
    ray = gamma.vertices()
    v1, v2 = ray[1], ray[3]
    off = next(k for k in range(1, d + 1) if k != v2[-1] and k != colors[3])
    w = neighbor(v2, off)
    g = WordTranslation(reduce_word(tuple(w) + tuple(reversed(v1))), d)
    if g.apply(v1) != w:
        raise TreeLocalError("witness construction failed")
    on_ray = set(ray)
    divergence = next(distance(BASE, g.apply(u))
                      for u in ray if g.apply(u) not in on_ray)
    return g, divergence


class ObstructionWitness(NamedTuple):
    """Two short segments through a common edge color that no element of
    G(F,F') can match: the stabilizer of the color a in F' has b1 and b2
    in different orbits."""

    a: Optional[int]
    b1: int
    b2: int
    gamma1: Segment
    gamma2: Segment
    translate: bool


def e2_obstruction(ctx: GroupContext) -> Optional[ObstructionWitness]:
    """Absent iff F' is 2-transitive; otherwise a pair of segments that
    fail is_translate.  If F' is intransitive the witness is a pair of
    length-1 segments in different color orbits; if transitive, a pair of
    length-2 segments ending with a common color a whose first colors lie
    in different orbits of the stabilizer of a."""
    if ctx.two_transitive:
        return None
    blocks = orbits(ctx.Fp)
    if len(blocks) > 1:
        b1, b2 = blocks[0][0], blocks[1][0]
        g1 = Segment(Vertex((b1,)), (b1,))
        g2 = Segment(Vertex((b2,)), (b2,))
        return ObstructionWitness(None, b1, b2, g1, g2,
                                  translate=is_translate(ctx, g1, g2))
    for a in range(1, ctx.d + 1):
        st = stabilizer(ctx.Fp, a)
        st_blocks = [blk for blk in orbits(st) if blk != (a,)]
        if len(st_blocks) > 1:
            b1, b2 = st_blocks[0][0], st_blocks[1][0]
            g1 = Segment(Vertex((b1,)), (b1, a))
            g2 = Segment(Vertex((b2,)), (b2, a))
            return ObstructionWitness(a, b1, b2, g1, g2,
                                      translate=is_translate(ctx, g1, g2))
    raise TreeLocalError("unreachable: F' transitive with all stabilizers "
                         "transitive is 2-transitive")


def segment_orbit_census(ctx: GroupContext, n: int) -> list[tuple[int, ...]]:
    """Representatives of length-n color sequences up to oriented
    F'-matchability (equivalently, up to the G(F,F') action on oriented
    segments with matched starts): the lexicographically first sequence
    of each orbital word, in order of first appearance.  One class for
    every n iff the group is transitive on same-length segments."""
    if n < 1:
        raise TreeLocalError("census needs n >= 1")
    total = ctx.d * (ctx.d - 1) ** (n - 1)
    if total > ENUMERATION_CAP:
        raise SizeLimitExceeded(f"{total} sequences exceed cap {ENUMERATION_CAP}")
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for seq in reduced_words(ctx.d, n):
        reps.setdefault(ctx.orbital_word(seq), seq)
    return list(reps.values())
