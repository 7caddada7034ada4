"""Exact finite permutation-group computations on {1, ..., d}.

Everything here is materialized and deterministic: groups are full element
sets in a canonical order (lexicographic on image tuples), so searches such
as :func:`find_mapping` and :func:`pick_tau` always return the same answer.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Optional, Sequence

from .errors import (
    ConflictingConstraints,
    DegreeMismatch,
    Frozen,
    MalformedCycle,
    OutOfRange,
    RepeatedEntry,
    SizeLimitExceeded,
    TreeLocalError,
    TrivialGroup,
)

#: Cap on materialized group order (10!).
DEFAULT_ORDER_CAP = 3628800


class Permutation(tuple):
    """A permutation of {1..d}, stored as its image tuple.

    ``p[i-1]`` is the image of ``i``; ``p(i)`` is sugar for the same.
    Instances compare and hash as plain tuples, which fixes the canonical
    order used throughout the package.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        t = tuple(images)
        if sorted(t) != list(range(1, len(t) + 1)):
            raise MalformedCycle(f"not a bijection of 1..{len(t)}: {t}")
        return tuple.__new__(cls, t)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(1, d + 1))

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    # after, inv and power build their result with tuple.__new__: a
    # composite, inverse or power of bijections is a bijection, so only the
    # constructor above (and the parsers that call it) checks its input.

    def after(self, other: "Permutation") -> "Permutation":
        """Composition self o other (apply ``other`` first)."""
        if len(self) != len(other):
            raise DegreeMismatch(f"{len(self)} vs {len(other)}")
        return tuple.__new__(Permutation, [self[j - 1] for j in other])

    def inv(self) -> "Permutation":
        images = [0] * len(self)
        for i, j in enumerate(self, start=1):
            images[j - 1] = i
        return tuple.__new__(Permutation, images)

    def power(self, n: int) -> "Permutation":
        """self^n in O(d) for any integer n: each cycle is read once and
        every point on it moves n mod (cycle length) steps along it."""
        images = list(range(1, len(self) + 1))
        for cyc in self.cycles():
            k = len(cyc)
            for pos, i in enumerate(cyc):
                images[i - 1] = cyc[(pos + n) % k]
        return tuple.__new__(Permutation, images)

    def is_identity(self) -> bool:
        return all(self[i] == i + 1 for i in range(len(self)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its least point."""
        seen = set()
        out = []
        for start in range(1, len(self) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation{tuple(self)!r}"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, d: int) -> Permutation:
    """Parse disjoint-cycle notation like ``"(1 2 3)(4 5)"``.

    The empty string and ``"()"`` denote the identity.  Entries may be
    separated by spaces or commas.
    """
    stripped = text.strip()
    if stripped and (stripped.count("(") != stripped.count(")")
                     or _CYCLE_RE.sub("", stripped).strip()):
        raise MalformedCycle(f"bad cycle syntax: {text!r}")
    images = list(range(1, d + 1))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        entries = [e for e in re.split(r"[,\s]+", body.strip()) if e]
        if not entries:
            continue
        try:
            points = [int(e) for e in entries]
        except ValueError as exc:
            raise MalformedCycle(f"non-integer entry in {text!r}") from exc
        for p in points:
            if not 1 <= p <= d:
                raise OutOfRange(f"entry {p} outside 1..{d}")
            if p in seen:
                raise RepeatedEntry(f"entry {p} repeated in {text!r}")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
    return Permutation(images)


class PermGroup(Frozen):
    """A fully materialized subgroup of Sym({1..d}).

    ``elements`` is sorted lexicographically on image tuples; this is the
    canonical order relied on by every deterministic search.  The element
    set and the memo of ``least`` are not fields: ==, hash and repr ignore
    them.
    """

    __slots__ = ("degree", "generators", "elements", "_element_set", "_least",
                 "__weakref__")
    _fields = ("degree", "generators", "elements")

    def __init__(self, degree: int, generators: tuple[Permutation, ...],
                 elements: tuple[Permutation, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_element_set", frozenset(elements))
        object.__setattr__(self, "_least", {})

    def least(self, key: tuple[int, ...]) -> Optional[Permutation]:
        """find_mapping(self, [(a1, b1), (a2, b2), ...]) for the constraints
        flattened to key = (a1, b1, a2, b2, ...), solved on its first lookup
        only: the least solution depends on the group alone."""
        if key not in self._least:
            self._least[key] = find_mapping(self, list(zip(key[::2], key[1::2])))
        return self._least[key]

    def __contains__(self, p: Permutation) -> bool:
        return p in self._element_set

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            raise DegreeMismatch(f"{self.degree} vs {other.degree}")
        return self._element_set <= other._element_set


def generate(generators: Sequence[Permutation], d: int) -> PermGroup:
    """Materialize the subgroup generated by ``generators`` inside Sym(d)."""
    gens = tuple(generators)
    for g in gens:
        if g.degree != d:
            raise DegreeMismatch(f"generator degree {g.degree}, expected {d}")
    ident = Permutation.identity(d)
    elements = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = g.after(a)
                if b not in elements:
                    if len(elements) >= DEFAULT_ORDER_CAP:
                        raise SizeLimitExceeded(
                            f"group order would exceed {DEFAULT_ORDER_CAP}")
                    elements.add(b)
                    fresh.append(b)
        frontier = fresh
    return PermGroup(d, gens, tuple(sorted(elements)))


def trivial_group(d: int) -> PermGroup:
    return generate([], d)


def symmetric_group(d: int) -> PermGroup:
    gens = [parse_cycles("(" + " ".join(map(str, range(1, d + 1))) + ")", d)]
    if d >= 2:
        gens.append(parse_cycles("(1 2)", d))
    return generate(gens, d)


def orbits(G: PermGroup) -> list[tuple[int, ...]]:
    """G-orbits on {1..d}, each sorted, blocks ordered by least element."""
    remaining = set(range(1, G.degree + 1))
    blocks = []
    while remaining:
        start = min(remaining)
        orb = {start}
        frontier = [start]
        while frontier:
            fresh = []
            for x in frontier:
                for g in G.generators:
                    y = g(x)
                    if y not in orb:
                        orb.add(y)
                        fresh.append(y)
            frontier = fresh
        blocks.append(tuple(sorted(orb)))
        remaining -= orb
    return blocks


def is_transitive(G: PermGroup) -> bool:
    return len(orbits(G)) == 1


def is_2transitive_direct(G: PermGroup) -> bool:
    """Transitivity on ordered pairs of distinct points (orbit of (1,2))."""
    d = G.degree
    if d < 2:
        return False
    start = (1, 2)
    orb = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for (x, y) in frontier:
            for g in G.generators:
                p = (g(x), g(y))
                if p not in orb:
                    orb.add(p)
                    fresh.append(p)
        frontier = fresh
    return len(orb) == d * (d - 1)


def is_2transitive_stab(G: PermGroup) -> bool:
    """Point-stabilizer transitivity on the complement, for every point."""
    d = G.degree
    if not is_transitive(G):
        return False
    for x in range(1, d + 1):
        st = stabilizer(G, x)
        others = [y for y in range(1, d + 1) if y != x]
        reach = {others[0]}
        for g in st.elements:
            reach.add(g(others[0]))
        # orbit under a full element set is one pass
        if reach != set(others):
            return False
    return True


def stabilizer(G: PermGroup, x: int) -> PermGroup:
    if not 1 <= x <= G.degree:
        raise OutOfRange(f"point {x} outside 1..{G.degree}")
    elems = tuple(g for g in G.elements if g(x) == x)
    return PermGroup(G.degree, elems, elems)


def preserves_orbits(F: PermGroup, Fp: PermGroup) -> bool:
    """True iff every F-orbit is setwise invariant under every element of Fp."""
    if F.degree != Fp.degree:
        raise DegreeMismatch(f"{F.degree} vs {Fp.degree}")
    for block in orbits(F):
        bset = set(block)
        for g in Fp.generators:
            if {g(x) for x in bset} != bset:
                return False
    return True


def find_mapping(G: PermGroup,
                 constraints: Sequence[tuple[int, int]]) -> Optional[Permutation]:
    """Least element of G (canonical order) with g(a) = b for all (a, b).

    Returns None when no element satisfies the constraints.  Duplicate
    sources with different targets raise ConflictingConstraints; duplicate
    targets with different sources are unsatisfiable and yield None.
    """
    wanted: dict[int, int] = {}
    for a, b in constraints:
        if a in wanted and wanted[a] != b:
            raise ConflictingConstraints(f"source {a} mapped to both {wanted[a]} and {b}")
        wanted[a] = b
    targets = list(wanted.values())
    if len(set(targets)) != len(targets):
        return None
    for g in G.elements:
        if all(g(a) == b for a, b in wanted.items()):
            return g
    return None


def pick_tau(F: PermGroup) -> tuple[Permutation, tuple[int, ...]]:
    """First non-identity element in canonical order, with its longest cycle.

    Ties between cycles of equal length go to the one with the least
    starting point.  The returned cycle always has length >= 2.
    """
    for g in F.elements:
        if not g.is_identity():
            cycs = g.cycles()
            best = max(cycs, key=lambda c: (len(c), -c[0]))
            return g, best
    raise TrivialGroup("pick_tau needs a nontrivial group")


def all_subgroups(d: int) -> list[PermGroup]:
    """Every subgroup of Sym(d), for 1 <= d <= 5.

    Closes over all generator tuples of size <= 2, which suffice since
    every subgroup of Sym(5) is 2-generated; Sym(6) is refused, as
    (Z/2)^3 = <(1 2), (3 4), (5 6)> needs three.  Result sorted by
    (order, element list).

    The closures run on the multiplication table of Sym(d) over the
    indices of its sorted elements.  Each closure is a bitmask of indices,
    so its bits read in index order give the sorted element list.  The
    tuples are visited trivial first, then singletons, then pairs in
    combinations order, and each group keeps the first tuple that
    generates it.
    """
    if not 1 <= d <= 5:
        why = ("a subgroup of Sym(d) may need more than 2 generators" if d > 5
               else "Sym(d) needs d >= 1")
        raise TreeLocalError(f"all_subgroups needs 1 <= d <= 5, not {d}: {why}")
    pool = symmetric_group(d).elements
    index = {p: i for i, p in enumerate(pool)}
    table = [[index[g.after(a)] for a in pool] for g in pool]
    # the identity is the least element, index 0
    groups = [trivial_group(d)]
    seen = {1}
    for r in (1, 2):
        for gens in itertools.combinations(range(len(pool)), r):
            rows = [table[g] for g in gens]
            mask, frontier = 1, [0]
            while frontier:
                fresh = []
                for a in frontier:
                    for row in rows:
                        b = row[a]
                        if not mask >> b & 1:
                            mask |= 1 << b
                            fresh.append(b)
                frontier = fresh
            if mask not in seen:
                seen.add(mask)
                groups.append(PermGroup(
                    d, tuple(pool[g] for g in gens),
                    tuple(p for i, p in enumerate(pool) if mask >> i & 1)))
    return sorted(groups, key=lambda G: (G.order, G.elements))
