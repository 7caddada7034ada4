"""The colored regular tree T_d in the reduced-word model.

Vertices are reduced words over the colors 1..d (no two consecutive letters
equal); the empty word is the base vertex.  The edge between w and w.k
carries color k, which fixes a legal coloring once and for all: with this
convention color-preserving automorphisms are exactly the left regular
action of the free product of d copies of Z/2.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Iterator, Sequence, Union

from .errors import Frozen, SizeLimitExceeded, TreeLocalError

#: The most vertices that ball walks; ball(e, 8) at d = 4 has 13,121.
BALL_CAP = 1_000_000


class Vertex(tuple):
    """A vertex of T_d: a reduced word of colors. ``Vertex()`` is the base."""

    __slots__ = ()

    def __new__(cls, letters: Sequence[int] = ()) -> "Vertex":
        t = tuple(letters)
        for a, b in zip(t, t[1:]):
            if a == b:
                raise TreeLocalError(f"word not reduced: {t}")
        return tuple.__new__(cls, t)

    @classmethod
    def parse(cls, text: str) -> "Vertex":
        text = text.strip()
        if text in ("", "e"):
            return cls()
        return cls(tuple(int(p) for p in text.split(".")))

    def __str__(self) -> str:
        return "e" if not self else ".".join(map(str, self))

    def __repr__(self) -> str:
        return f"Vertex({str(self)!r})"


BASE = Vertex()


def vertex_key(v: Vertex) -> tuple:
    """Length-lexicographic sort key; the global vertex order."""
    return (len(v), tuple(v))


def neighbor(v: Vertex, k: int) -> Vertex:
    """The vertex across the edge of color k at v."""
    # both words are reduced when v is, so Vertex's check is skipped
    if v and v[-1] == k:
        return tuple.__new__(Vertex, v[:-1])
    return tuple.__new__(Vertex, v + (k,))


def reduce_word(letters: Sequence[int]) -> Vertex:
    """Reduce a word in the free product of Z/2 factors (aa = empty)."""
    out: list[int] = []
    for k in letters:
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(k)
    return Vertex(out)


def reduced_words(d: int, length: int) -> Iterator[tuple[int, ...]]:
    """All reduced color words of the given length, lexicographic."""
    if length == 0:
        yield ()
        return
    for head in reduced_words(d, length - 1):
        for k in range(1, d + 1):
            if not head or head[-1] != k:
                yield head + (k,)


def distance(u: Vertex, v: Vertex) -> int:
    """len(u) + len(v) less twice the length of their common prefix."""
    n = len(u) + len(v)
    for a, b in zip(u, v):
        if a != b:
            break
        n -= 2
    return n


def adjacent(u: Vertex, v: Vertex) -> bool:
    """Whether u and v are the ends of one edge: the longer word is the
    shorter one plus a letter (one slice compare, no loop in Python)."""
    if len(u) < len(v):
        u, v = v, u
    return len(u) == len(v) + 1 and u[:-1] == v


class EdgeRef(Frozen):
    """An edge given by its endpoint nearer the base, plus its color."""

    __slots__ = _fields = ("near", "color")

    def __init__(self, near: Vertex, color: int):
        if near and near[-1] == color:
            raise TreeLocalError("near endpoint already ends with the edge color")
        object.__setattr__(self, "near", near)
        object.__setattr__(self, "color", color)

    @property
    def far(self) -> Vertex:
        return Vertex(tuple(self.near) + (self.color,))

    def endpoints(self) -> tuple[Vertex, Vertex]:
        return (self.near, self.far)


def edge_between(u: Vertex, v: Vertex) -> EdgeRef:
    """The edge joining two adjacent vertices."""
    if not adjacent(u, v):
        raise TreeLocalError(f"{u} and {v} are not adjacent")
    near, far = (u, v) if len(u) < len(v) else (v, u)
    return EdgeRef(near, far[-1])


class Segment(Frozen):
    """An oriented geodesic: a start vertex and the colors of its steps.
    Not slotted: the cached walk lives in the instance dict."""

    _fields = ("start", "colors")

    def __init__(self, start: Vertex, colors: Sequence[int]):
        colors = tuple(colors)
        for a, b in zip(colors, colors[1:]):
            if a == b:
                raise TreeLocalError(f"segment backtracks: colors {colors}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "colors", colors)

    @property
    def length(self) -> int:
        return len(self.colors)

    def vertices(self) -> tuple[Vertex, ...]:
        """start, then the vertex after each step: walked on the first
        call only, into the instance dict, since a segment does not change."""
        walk = self.__dict__.get("_walk")
        if walk is None:
            v = self.start
            out = [v]
            for k in self.colors:
                # neighbor(v, k), inline
                v = tuple.__new__(
                    Vertex, v[:-1] if v and v[-1] == k else v + (k,))
                out.append(v)
            walk = self.__dict__["_walk"] = tuple(out)
        return walk


def geodesic_colors(u: Vertex, v: Vertex) -> Iterable[int]:
    """The step colors of the geodesic from u to v, lazily: up from u to
    the common prefix, then down to v.  Nothing is validated or built."""
    c = (len(u) + len(v) - distance(u, v)) // 2
    return chain(reversed(u[c:]), v[c:])


def geodesic(u: Vertex, v: Vertex) -> Segment:
    """The geodesic segment from u to v."""
    # a list first: tuple() of an iterator of unknown length shrinks a
    # larger tuple, and freed, such tuples pile up on the free list of
    # their size, which raised peak RSS
    return Segment(u, list(geodesic_colors(u, v)))


PointOrMid = Union[Vertex, EdgeRef]


def midpoint(u: Vertex, v: Vertex) -> PointOrMid:
    """Vertex midpoint when distance is even, edge midpoint when odd."""
    seg = geodesic(u, v)
    half = seg.length // 2
    verts = seg.vertices()
    if seg.length % 2 == 0:
        return verts[half]
    return edge_between(verts[half], verts[half + 1])


def ball(v: Vertex, R: int, d: int) -> Iterator[Vertex]:
    """All vertices at distance <= R from v, in BFS order.  A ball of
    more than BALL_CAP vertices raises SizeLimitExceeded before any is
    yielded."""
    if R < 0:
        raise TreeLocalError("negative radius")
    if d < 3:
        raise TreeLocalError(f"degree {d} < 3")
    # ball_size(R, d) >= 2^R, so a large R is refused without computing it
    if R >= BALL_CAP.bit_length() or ball_size(R, d) > BALL_CAP:
        raise SizeLimitExceeded(
            f"ball of radius {R} at degree {d} has more than BALL_CAP "
            f"{BALL_CAP} vertices")
    yield v
    # back[i] is the color of the edge from frontier[i] toward v (0 at v);
    # every other edge leads one step farther out
    frontier, back = [v], [0]
    for _ in range(R):
        fresh, fresh_back = [], []
        for u, b in zip(frontier, back):
            for k in range(1, d + 1):
                if k != b:
                    w = neighbor(u, k)
                    fresh.append(w)
                    fresh_back.append(k)
                    yield w
        frontier, back = fresh, fresh_back


def ball_size(R: int, d: int) -> int:
    """Closed form 1 + d((d-1)^R - 1)/(d-2) for d >= 3."""
    if R == 0:
        return 1
    return 1 + d * ((d - 1) ** R - 1) // (d - 2)


def is_aligned(points: Sequence[Vertex]) -> bool:
    """True iff all points lie on a common geodesic.

    In a tree, a farthest point b from any point, and a farthest point c
    from b, form a farthest pair.  The points are aligned iff every p lies
    on the geodesic [b, c], that is d(b, p) + d(p, c) = d(b, c).
    """
    pts = list(points)
    if not pts:
        raise TreeLocalError("is_aligned needs at least one point")
    b = max(pts, key=lambda p: distance(pts[0], p))
    from_b = [distance(b, p) for p in pts]
    span = max(from_b)
    c = pts[from_b.index(span)]
    return all(bp + distance(p, c) == span for p, bp in zip(pts, from_b))


def is_aligned_bruteforce(points: Sequence[Vertex]) -> bool:
    """Independent oracle: all points on the geodesic of the farthest pair."""
    pts = list(points)
    if len(set(pts)) <= 2:
        return True
    far = max(((a, b) for a in pts for b in pts), key=lambda ab: distance(*ab))
    on_path = set(geodesic(*far).vertices())
    return all(p in on_path for p in pts)


class EventuallyPeriodic(Frozen):
    """An eventually periodic sequence indexed from 1."""

    __slots__ = _fields = ("pre", "period")

    def __init__(self, pre: Sequence[int], period: Sequence[int]):
        pre, period = tuple(pre), tuple(period)
        if not period:
            raise TreeLocalError("period must be nonempty")
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)

    def term(self, i: int) -> int:
        if i < 1:
            raise TreeLocalError(f"index {i} < 1")
        if i <= len(self.pre):
            return self.pre[i - 1]
        return self.period[(i - 1 - len(self.pre)) % len(self.period)]


class LineSpec(Frozen):
    """A bi-infinite geodesic line through an anchor vertex v_0.

    ``forward.term(i)`` is the color of the edge (v_{i-1}, v_i) for i >= 1;
    ``backward.term(i)`` is the color of the edge (v_{-i}, v_{-i+1}).
    """

    __slots__ = ("anchor", "forward", "backward", "_walked", "_index")
    _fields = ("anchor", "forward", "backward")

    def __init__(self, anchor: Vertex, forward: EventuallyPeriodic,
                 backward: EventuallyPeriodic):
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "backward", backward)
        # geodesic check on a window covering both preambles and periods
        w = 2 * (len(forward.pre) + len(forward.period)
                 + len(backward.pre) + len(backward.period)) + 4
        for i in range(-w, w):
            if self.edge_color(i) == self.edge_color(i + 1):
                raise TreeLocalError(f"line backtracks at index {i}")
        # v_0, v_1, ... and v_0, v_-1, ..., walked once and extended on
        # demand, and the index of every walked vertex; not fields, so ==,
        # hash and repr ignore them
        object.__setattr__(self, "_walked", ([anchor], [anchor]))
        object.__setattr__(self, "_index", {anchor: 0})

    def tail(self, m: int = 1) -> tuple[int, int]:
        """(seam, P) such that anything depending only on i mod m and on
        the edge colors e(j) with |j - i| <= 3 or |j + i| <= 3 takes the
        same value at i and i + P for i >= seam, and at i and i - P for
        i <= -seam.

        For |i| >= seam = (longer preamble) + 4, every such e(j) is a term
        of a periodic part, so P = lcm(forward period, backward period, m)
        works, and a check over the indices in [-seam - P, seam + P)
        covers the whole line.
        """
        seam = max(len(self.forward.pre), len(self.backward.pre)) + 4
        return seam, math.lcm(len(self.forward.period),
                              len(self.backward.period), m)

    def edge_color(self, i: int) -> int:
        """Color of the edge (v_{i-1}, v_i)."""
        if i >= 1:
            return self.forward.term(i)
        return self.backward.term(1 - i)

    def _walk(self, i: int) -> Vertex:
        """v_i, extending the walked vertex lists and the index toward |i|."""
        side, colors, sign = ((self._walked[0], self.forward, 1) if i >= 0
                              else (self._walked[1], self.backward, -1))
        n = abs(i)
        while len(side) <= n:
            w = neighbor(side[-1], colors.term(len(side)))
            self._index[w] = sign * len(side)
            side.append(w)
        return side[n]

    def vertex(self, i: int) -> Vertex:
        """v_i; a table lookup once the walk has reached it."""
        return self._walk(i)

    def forward_slice(self, lo: int, hi: int) -> list[Vertex]:
        """[v_lo, ..., v_{hi-1}] for 0 <= lo <= hi: one slice of the walked
        forward side, walked out to v_{hi-1} first when it is short."""
        if lo < 0:
            raise TreeLocalError(f"forward slice from index {lo} < 0")
        side = self._walked[0]
        if len(side) < hi:
            self._walk(hi - 1)
        return side[lo:hi]

    def index_of(self, v: Vertex) -> int | None:
        """Index of v on the line, or None when v is off the line.

        The line is a geodesic through v_0, so v can only be v_i with
        |i| = d(v_0, v) <= len(v) + len(v_0).  Once both sides are walked
        that far, one lookup in the index answers.
        """
        n = len(v) + len(self.anchor)
        forward, backward = self._walked
        if len(forward) <= n or len(backward) <= n:
            self._walk(n)
            self._walk(-n)
        return self._index.get(v)
