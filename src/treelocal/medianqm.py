"""Median quasimorphisms on G(F,F').

f_{s,v}(g) counts the oriented translates of a fixed segment s inside
the geodesic [v, g v], minus the count inside [g v, v].  A subsegment is
a translate of s iff the two color sequences have the same F'-orbital
word (see localaction.colors_matchable), so one pass over the windows of
a color word counts every pattern of a given length at once.

Homogenization is computed two ways: the defining limit f(g^n)/n, and a
closed form counting occurrence starts inside one fundamental domain of
the axis of a loxodromic element.  The two agree once n is large enough
and the tests insist on exact agreement.  Against a word translation the
closed form for every segment of a length is one axis column, which the
nonvanishing and rank searches read their values from.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import Frozen, OutOfRange, SizeLimitExceeded, TreeLocalError
from .autom import (
    Automorphism,
    Compose,
    Loxodromic,
    WordTranslation,
    classify,
    power,
)
from .localaction import ENUMERATION_CAP, GroupContext, segment_orbit_census
from .ratmat import border, rank
from .tree import BASE, Segment, Vertex, geodesic


#: The largest N that homogenize_limit accepts.  Term n reads a geodesic
#: of about n times the translation length of g, so time and memory grow
#: as N^2: N = 1000 took 2.7 s and 67 MB for the 7-letter word
#: 1.2.1.2.4.2.3 (Python 3.11, 2 CPUs).
HOMOGENIZE_LIMIT_CAP = 1000


class MedianQM(Frozen):
    """The function g -> (signed count of oriented translates of s in the
    geodesic from v to g v).  Unhashable, as its context is."""

    __slots__ = _fields = ("s", "v", "ctx")

    def __init__(self, s: Segment, v: Vertex, ctx: GroupContext):
        if s.length < 1:
            raise TreeLocalError("segment must have positive length")
        if any(not 1 <= k <= ctx.d for k in s.colors):
            raise TreeLocalError(
                f"segment colors {list(s.colors)} outside 1..{ctx.d}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "ctx", ctx)


class QMEvaluation(NamedTuple):
    value: int
    forward_count: int
    backward_count: int


def _labels(ctx: GroupContext, word: Sequence[int], n: int) -> tuple[list, list]:
    """The labels of the pairs (w_j, w_{j+1}) and of (w_{j+1}, w_j) that
    length-n windows read; for n = 1, those of (w_j, w_j), twice.  Lists,
    not tuples: CPython keeps freed short tuples on free lists, which raised
    the peak memory of a CLI pass over every pair at d = 3, 4 by 0.4 MB."""
    orbital = ctx.orbital
    try:
        if n == 1:
            ahead = back = [orbital[x, x] for x in word]
        else:
            ahead = [orbital[x, y] for x, y in zip(word, word[1:])]
            back = [orbital[y, x] for x, y in zip(word, word[1:])]
    except KeyError:
        raise OutOfRange(f"colors {list(word)} outside 1..{ctx.d}") from None
    return ahead, back


def _window_counts(ctx: GroupContext, word: Sequence[int], n: int,
                   start: int, stop: int) -> tuple[Counter, Counter]:
    """How often each orbital word occurs among the windows word[i : i+n]
    with i in [start, stop), and among their reversals: slices of the
    forward labels, and reversed slices of the backward labels."""
    ahead, back = _labels(ctx, word, n)
    k = max(1, n - 1)
    starts = range(start, min(stop, len(word) - n + 1))
    return (Counter(tuple(ahead[i:i + k]) for i in starts),
            Counter(tuple(reversed(back[i:i + k])) for i in starts))


def _signed_count(ctx: GroupContext, word: Sequence[int], pattern: Sequence[int],
                 start: int, stop: int) -> tuple[int, int]:
    """(forward, backward): the window starts i in [start, stop) whose
    window word[i : i+|pattern|] matches the pattern, and those whose
    reversed window does, counted without tallying the other windows."""
    ahead, back = _labels(ctx, word, len(pattern))
    key = list(ctx.orbital_word(pattern))
    yek, k = key[::-1], len(key)
    starts = range(start, min(stop, len(word) - len(pattern) + 1))
    return (sum(ahead[i:i + k] == key for i in starts),
            sum(back[i:i + k] == yek for i in starts))


def eval_qm(f: MedianQM, g: Automorphism) -> QMEvaluation:
    word = geodesic(f.v, g.apply(f.v)).colors
    fwd, bwd = _signed_count(f.ctx, word, f.s.colors, 0, len(word))
    return QMEvaluation(value=fwd - bwd, forward_count=fwd, backward_count=bwd)


def homogenize_limit(f: MedianQM, g: Automorphism, N: int) -> list[Fraction]:
    """The sequence f(g^n)/n for n = 1..N.  An N above
    HOMOGENIZE_LIMIT_CAP raises SizeLimitExceeded before any term."""
    if N < 1:
        raise TreeLocalError("N must be positive")
    if N > HOMOGENIZE_LIMIT_CAP:
        raise SizeLimitExceeded(
            f"N = {N} exceeds HOMOGENIZE_LIMIT_CAP {HOMOGENIZE_LIMIT_CAP}")
    out = []
    acc = power(g, 0)
    for n in range(1, N + 1):
        acc = Compose(g, acc)
        out.append(Fraction(eval_qm(f, acc).value, n))
    return out


def homogenize(f: MedianQM, g: Automorphism) -> int:
    """The homogenization lim f(g^n)/n, evaluated exactly.

    Elliptic elements and inversions have bounded orbits, so the limit is
    0.  For a loxodromic element the value is the signed number of
    occurrence starts within one fundamental domain of its axis; the
    count is taken in an interior domain of a long window so boundary
    effects cannot leak in.
    """
    cls = classify(g)
    if not isinstance(cls, Loxodromic):
        return 0
    u = cls.axis_point
    ell = cls.length
    n = f.s.length
    reps = 3 + (n + ell - 1) // ell
    window = geodesic(u, power(g, reps).apply(u)).colors
    fwd, bwd = _signed_count(f.ctx, window, f.s.colors, ell, 2 * ell)
    return fwd - bwd


def cyclic_reduction(w: Sequence[int]) -> tuple[int, ...]:
    t = tuple(w)
    while len(t) >= 2 and t[0] == t[-1]:
        t = t[1:-1]
    return t


def axis_column(ctx: GroupContext, w: Sequence[int], n: int) -> Counter:
    """Homogenization of every length-n median quasimorphism against the
    word translation by w, keyed by the orbital word of its segment: the
    signed window counts over one period of the axis, whose colors are
    the cyclic reduction of w repeated.  Backward occurrences are
    attributed to the forward window they occupy, which is equivalent per
    period to any other attribution.  For n = 1 the column is empty: a
    one-color window and its reversal read the same diagonal label
    orbital[x, x], so every forward count cancels a backward one."""
    t = cyclic_reduction(w)
    ell = len(t)
    if ell <= 1 or n == 1:
        return Counter()
    ahead, back = _window_counts(ctx, t * (2 + n // ell), n, 0, ell)
    ahead.subtract(back)
    return ahead


def _over_cap(d: int, bound: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(
        f"axis words up to length {bound} at d = {d} exceed ENUMERATION_CAP "
        f"{ENUMERATION_CAP} (it counts the prefixes kept and the colors of "
        f"the words returned)")


def _axis_words(ctx: GroupContext, bound: int) -> list[tuple[int, ...]]:
    """The first cyclically reduced word of each axis among the words of
    length 2..bound, in word order (by length, then lexicographic, as
    reduced_words lists each length), built without listing the words.

    The axis of w is ctx.orbital_word(w + w[:1]): the labels of its
    consecutive pairs followed by orbital[w[-1], w[0]].  So it depends
    only on the key (first color, last color, labels) of w as a prefix,
    and extending a prefix by a color c extends its key by c and
    orbital[last, c].  Pass over the lengths breadth-first, keeping the
    first prefix of each key.  Exactness: for two prefixes p < q of one
    length with equal keys, p + s and q + s have equal keys after any
    common extension s, and p + s < q + s; so q never supplies a first
    word, and neither does any extension of it.  The kept prefixes of a
    length are extended in order, each by the colors c != last in
    ascending order, so every level is kept in lexicographic order, and
    the first kept prefix of an axis at a length is the first word of
    that axis there.

    A kept prefix is stored as its parent and its last color, and a label
    sequence as an id interned from its parent sequence's id and its last
    label, so each costs O(1) whatever its length.  ENUMERATION_CAP
    counts what is stored: one per kept prefix and one per color of each
    word returned (every interned sequence comes with a new prefix or a
    new axis).  The pass is refused as soon as the count passes the cap,
    so neither its work nor its memory outgrows the cap."""
    d = ctx.d
    orbital = ctx.orbital
    parent: list[int] = []
    color: list[int] = []
    interned: dict[tuple[int, int], int] = {}

    def spell(i: int) -> tuple[int, ...]:
        w = []
        while i >= 0:
            w.append(color[i])
            i = parent[i]
        return tuple(reversed(w))

    total = d
    parent.extend([-1] * d)
    color.extend(range(1, d + 1))
    level = {(k, k, 0): k - 1 for k in range(1, d + 1)}
    seen: set[int] = set()
    words = []
    for n in range(2, bound + 1):
        grown: dict[tuple[int, int, int], int] = {}
        for (first, last, labels), i in level.items():
            for c in range(1, d + 1):
                if c == last:
                    continue
                key = (first, c, interned.setdefault(
                    (labels, orbital[last, c]), len(interned) + 1))
                if key not in grown:
                    total += 1
                    if total > ENUMERATION_CAP:
                        raise _over_cap(d, bound)
                    grown[key] = len(color)
                    parent.append(i)
                    color.append(c)
        level = grown
        for (first, last, labels), i in level.items():
            if first != last:
                axis = interned.setdefault(
                    (labels, orbital[last, first]), len(interned) + 1)
                if axis not in seen:
                    total += n
                    if total > ENUMERATION_CAP:
                        raise _over_cap(d, bound)
                    seen.add(axis)
                    words.append(spell(i))
    return words


class _AxisColumns:
    """The candidate words of a search, one per axis (_axis_words), with
    their axis columns computed once per (rotation class, segment length).

    The axis of a cyclically reduced word w is its cyclic orbital word
    ctx.orbital_word(w + w[:1]).  Lemma: every value a search reads from w
    depends only on its axis.  Its axis columns, hence the row u, column c
    and corner h of a Schur test, and the tail counts eval_colors(ctx,
    w * n, rep) count windows over the labels orbital[x, y] of consecutive
    pairs, over the reversed labels orbital[y, x] and, for one-color
    segments, over the diagonal labels orbital[x, x]; the last two are
    functions of the first.  A later word with the same axis therefore
    repeats the verdict of the first, so keeping the first word of each
    axis, in word order, leaves the first hit of a search, and with it
    every witness, unchanged.

    The columns depend on less: only on the rotation class of the axis,
    its least rotation.  axis_column counts the windows that start at each
    position of one period, that is every window of n - 1 cyclically
    consecutive labels, and the reversed windows of the backward labels;
    rotating the labels permutes the starts, so both multisets, and the
    column, stay the same.  So the words of one class share one column
    and one list of its nonzero entries.  The tail counts read w * n
    linearly and do depend on the rotation, so they stay per word."""

    def __init__(self, ctx: GroupContext, bound: int):
        self.ctx = ctx
        self.words = _axis_words(ctx, bound)
        # the rotation class of each word, computed on its first read
        self.classes: list[Optional[tuple[int, ...]]] = [None] * len(self.words)
        self.columns: dict[tuple[tuple[int, ...], int], Counter] = {}
        # per length with every column built: each key's nonzero (i, h)
        self.nonzero: dict[int, dict[tuple[int, ...], list[tuple[int, int]]]] = {}

    def rotation_class(self, i: int) -> tuple[int, ...]:
        """The least rotation of the axis of words[i]."""
        c = self.classes[i]
        if c is None:
            w = self.words[i]
            labels = self.ctx.orbital_word(w + w[:1])
            c = self.classes[i] = min(labels[j:] + labels[:j]
                                      for j in range(len(labels)))
        return c

    def __call__(self, i: int, n: int) -> Counter:
        """The axis column of words[i] for segment length n."""
        key = self.rotation_class(i), n
        col = self.columns.get(key)
        if col is None:
            col = self.columns[key] = axis_column(self.ctx, self.words[i], n)
        return col

    def hits(self, n: int, key: tuple[int, ...]) -> Iterator[tuple[int, int]]:
        """(i, h) for the words i with h = column(i, n)[key] nonzero, in
        word order, building columns only as the scan reaches them.  A
        scan that reaches the last word has built every column of length
        n; it indexes the words by nonzero key for the later scans, listing
        the nonzero entries of each class once."""
        index = self.nonzero.get(n)
        if index is not None:
            yield from index.get(key, ())
            return
        for i in range(len(self.words)):
            h = self(i, n)[key]
            if h:
                yield i, h
        index = self.nonzero[n] = {}
        entries: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        for i in range(len(self.words)):
            c = self.rotation_class(i)
            items = entries.get(c)
            if items is None:
                items = entries[c] = [(k, h) for k, h in self.columns[c, n].items()
                                      if h]
            for k, h in items:
                index.setdefault(k, []).append((i, h))


def eval_colors(ctx: GroupContext, word: tuple[int, ...],
                pattern: tuple[int, ...]) -> int:
    """Signed occurrence count of the pattern over a whole finite color
    word: forward occurrences minus occurrences of the reversal."""
    fwd, bwd = _signed_count(ctx, word, pattern, 0, len(word))
    return fwd - bwd


def find_nonvanishing_qm(
        ctx: GroupContext, max_seg: int,
        search_bound: int) -> Optional[tuple[MedianQM, Automorphism, int]]:
    """A median quasimorphism with nonzero homogenization against some
    word translation, searched over segment orbit representatives of
    length <= max_seg and cyclically reduced words of length <=
    search_bound.  None when the bounds are exhausted (guaranteed when F'
    is 2-transitive, where every f is identically zero).

    The returned witness is additionally required to satisfy exact tail
    agreement f(g^n)/n = homogenize(f, g) for n = 6..8: some witnesses
    carry a constant boundary correction, and the exact-agreement ones
    make the limit visible at finite n.
    """
    column = _AxisColumns(ctx, search_bound)
    for seg_len in range(1, max_seg + 1):
        for rep in segment_orbit_census(ctx, seg_len):
            for i, h in column.hits(seg_len, ctx.orbital_word(rep)):
                w = column.words[i]
                if all(eval_colors(ctx, w * n, rep) == n * h for n in (6, 7, 8)):
                    return (MedianQM(Segment(BASE, rep), BASE, ctx),
                            WordTranslation(Vertex(w), ctx.d), h)
    return None


class IndependenceCertificate(Frozen):
    """Homogenized values of median quasimorphisms (rows) on word
    translations (columns), with the matrix's exact rank r.  Unhashable,
    as its quasimorphisms are.

    Lemma: the rows' classes in H^2_b(G; R) span a space of dimension at
    least r.  The kernel of the map from homogeneous quasimorphisms to
    H^2_b(G; R) is Hom(G, R).  The columns lie in the group W of word
    translations, W = *_d Z/2, which is generated by the one-letter
    translations, all involutions; a homomorphism phi: G -> R has
    2 phi(s) = phi(s^2) = 0 for an involution s, so it vanishes on W.
    Take r rows of M that are linearly independent.  If sum c_i h_i over
    them is some phi, evaluating on the columns gives sum c_i M_ij = 0 for
    every j, so every c_i is 0.  That the rows are homogeneous
    quasimorphisms on G rests on the paper and is not checked here."""

    __slots__ = _fields = ("qms", "elements", "matrix", "rank")

    def __init__(self, qms: tuple[MedianQM, ...],
                 elements: tuple[WordTranslation, ...],
                 matrix: tuple[tuple[int, ...], ...], rank: int):
        object.__setattr__(self, "qms", qms)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rank", rank)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "matrix": [list(row) for row in self.matrix],
            "segments": [list(q.s.colors) for q in self.qms],
            "elements": [g.describe() for g in self.elements],
        }


def independence_certificate(qms: Sequence[MedianQM],
                             elements: Sequence[WordTranslation]) -> IndependenceCertificate:
    """Matrix of homogenized values and its exact rank: a lower bound on
    the dimension the rows span in H^2_b(G; R) (see
    IndependenceCertificate).  A column outside the word translations is
    refused, since the lemma needs every column in W."""
    if not qms:
        raise TreeLocalError("need at least one quasimorphism")
    for g in elements:
        if not isinstance(g, WordTranslation):
            raise TreeLocalError(f"column {g.describe()} is not a word translation")
    matrix = tuple(tuple(homogenize(f, g) for g in elements) for f in qms)
    return IndependenceCertificate(
        qms=tuple(qms), elements=tuple(elements),
        matrix=matrix, rank=rank(matrix))


def independence_search(ctx: GroupContext, target_rank: int, max_seg: int,
                        search_bound: int) -> Optional[IndependenceCertificate]:
    """Search for target_rank linearly independent homogenized median
    quasimorphisms.  The columns are word translations, so by the lemma
    of IndependenceCertificate the rank also bounds the dimension the rows
    span in H^2_b(G; R).

    Greedy: walk the segment orbit representatives; for each, scan word
    translations and accept the first (representative, word) pair whose
    row and column strictly increase the exact rank of the accumulated
    matrix.  Stops as soon as the target is reached.

    The accepted k x k matrix A is always invertible, so the bordered
    candidate [[A, c], [u, h]] has rank k + 1 iff its determinant is
    nonzero; ratmat.border tests that from det A and adj A, kept as ints
    and updated on each acceptance.  The row u, column c and corner h of a
    word depend only on its axis, so one word per axis is scanned.  A
    target_rank below 1 raises TreeLocalError."""
    if target_rank < 1:
        raise TreeLocalError(f"target rank must be at least 1, not {target_rank}")
    column = _AxisColumns(ctx, search_bound)
    chosen_qms: list[MedianQM] = []
    chosen_keys: list[tuple[int, tuple[int, ...]]] = []
    chosen_words: list[int] = []
    det, adj = 1, []
    for seg_len in range(1, max_seg + 1):
        for rep in segment_orbit_census(ctx, seg_len):
            key = ctx.orbital_word(rep)
            u = [column(j, seg_len)[key] for j in chosen_words]
            for i, h in column.hits(seg_len, key):
                c = [column(i, n)[k] for n, k in chosen_keys]
                new_det, new_adj = border(det, adj, u, c, h)
                if new_adj is not None:
                    chosen_qms.append(MedianQM(Segment(BASE, rep), BASE, ctx))
                    chosen_keys.append((seg_len, key))
                    chosen_words.append(i)
                    det, adj = new_det, new_adj
                    break
            if len(chosen_qms) >= target_rank:
                els = [WordTranslation(Vertex(column.words[j]), ctx.d)
                       for j in chosen_words]
                cert = independence_certificate(chosen_qms, els)
                if cert.rank >= target_rank:
                    return cert
    return None
