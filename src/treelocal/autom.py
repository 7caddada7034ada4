"""Tree automorphisms as lazy portrait expressions.

An automorphism of T_d is represented by its portrait: the image of the
base vertex together with the local permutation sigma(g, v) at every
vertex, where sigma(g, v) describes how g permutes the edge colors at v.
Evaluation walks the word of a vertex from a point whose image is known,
stepping the image side by the local permutation of each letter.

Expressions are immutable; every instance memoizes its images and local
permutations, so repeated evaluation is cheap.  Edge compatibility
(sigma at both endpoints of an edge agree on the edge color) is checked
lazily where a constructor cannot guarantee it, and violations raise
InconsistentPortrait rather than producing a wrong vertex map.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    InconsistentPortrait,
    OrbitViolation,
    RadiusExhausted,
    SizeLimitExceeded,
    TreeLocalError,
)
from .permgroups import PermGroup, Permutation
from .tree import (
    BASE,
    EdgeRef,
    LineSpec,
    Vertex,
    ball,
    distance,
    edge_between,
    geodesic_colors,
    midpoint,
    neighbor,
    reduce_word,
)


#: The largest line period P that LinePortrait checks; its construction
#: costs seam + P sigma_at calls on each side, and the canonical lines
#: have P <= 12.
LINE_PERIOD_CAP = 10000


class Automorphism:
    """Base class: a lazy, memoizing automorphism of T_d."""

    def __init__(self, d: int):
        if d < 3:
            raise TreeLocalError(f"degree {d} < 3")
        self.d = d
        self._apply_memo: dict[Vertex, Vertex] = {}
        self._local_memo: dict[Vertex, Permutation] = {}

    def apply(self, v: Vertex) -> Vertex:
        hit = self._apply_memo.get(v)
        if hit is None:
            hit = self._apply(v)
            self._apply_memo[v] = hit
        return hit

    def local(self, v: Vertex) -> Permutation:
        hit = self._local_memo.get(v)
        if hit is None:
            hit = self._local(v)
            self._local_memo[v] = hit
        return hit

    def ball_locals(self, R: int) -> Iterator[tuple[Vertex, Permutation]]:
        """(v, local(v)) for every v in ball(BASE, R), in ball order."""
        for v in ball(BASE, R, self.d):
            yield v, self.local(v)

    def _apply(self, v: Vertex) -> Vertex:
        raise NotImplementedError

    def _local(self, v: Vertex) -> Permutation:
        raise NotImplementedError

    def _preimage(self, v: Vertex) -> Optional[Vertex]:
        """The vertex this automorphism sends to v, where a class can read
        it off its data without a walk; None where it cannot."""
        return None

    def is_exact(self, F: PermGroup) -> bool:
        """True when this expression class guarantees that the set of
        vertices with local permutation outside F is finite."""
        return False

    def describe(self) -> str:
        return type(self).__name__


class WordTranslation(Automorphism):
    """Left translation by a reduced word: v -> reduce(w . v).

    These are exactly the color-preserving automorphisms of the word
    model, so the local permutation is the identity everywhere.
    """

    def __init__(self, w: Vertex, d: int):
        super().__init__(d)
        if any(not 1 <= k <= d for k in w):
            raise TreeLocalError(f"word {w} has letters outside 1..{d}")
        self.w = w

    def _apply(self, v: Vertex) -> Vertex:
        return reduce_word(tuple(self.w) + tuple(v))

    def _local(self, v: Vertex) -> Permutation:
        return Permutation.identity(self.d)

    def is_exact(self, F: PermGroup) -> bool:
        return True

    def describe(self) -> str:
        return f"word({self.w})"


class Diagonal(Automorphism):
    """The automorphism acting letterwise by a fixed permutation of colors."""

    def __init__(self, pi: Permutation):
        super().__init__(pi.degree)
        self.pi = pi

    def _apply(self, v: Vertex) -> Vertex:
        return Vertex(tuple(self.pi(k) for k in v))

    def _local(self, v: Vertex) -> Permutation:
        return self.pi

    def is_exact(self, F: PermGroup) -> bool:
        return self.pi in F

    def describe(self) -> str:
        return f"diag({self.pi.cycle_string()})"


class SubtreeDiagonal(Automorphism):
    """Acts by a fixed permutation on colors inside the subtree hanging at u,
    identically elsewhere.  Requires pi to fix the last letter of u so the
    edge into the subtree stays compatible."""

    def __init__(self, u: Vertex, pi: Permutation):
        super().__init__(pi.degree)
        if not u:
            raise TreeLocalError("subtree root must differ from the base; use Diagonal")
        if pi(u[-1]) != u[-1]:
            raise InconsistentPortrait(
                f"permutation must fix the entry color {u[-1]} of {u}")
        self.u = u
        self.pi = pi

    def _in_subtree(self, v: Vertex) -> bool:
        return len(v) >= len(self.u) and v[:len(self.u)] == tuple(self.u)

    def _apply(self, v: Vertex) -> Vertex:
        if not self._in_subtree(v):
            return v
        n = len(self.u)
        return Vertex(tuple(self.u) + tuple(self.pi(k) for k in v[n:]))

    def _local(self, v: Vertex) -> Permutation:
        if self._in_subtree(v):
            return self.pi
        return Permutation.identity(self.d)

    def is_exact(self, F: PermGroup) -> bool:
        return self.pi in F

    def describe(self) -> str:
        return f"subdiag({self.u}, {self.pi.cycle_string()})"


class Patched(Automorphism):
    """Override the local permutations of a base automorphism at finitely
    many vertices.  Consistency is not provable per constructor, so every
    walked edge is compatibility-checked at evaluation time."""

    def __init__(self, base: Automorphism, overrides: dict[Vertex, Permutation]):
        super().__init__(base.d)
        for v, p in overrides.items():
            if p.degree != base.d:
                raise TreeLocalError(f"override at {v} has degree {p.degree}")
        self.base = base
        self.overrides = dict(overrides)

    def _apply(self, v: Vertex) -> Vertex:
        """Walk from BASE to v, stepping the image by the local
        permutations and checking each edge walked."""
        u, x = BASE, self.base.apply(BASE)
        for k in v:
            w = neighbor(u, k)
            if self.local(u)(k) != self.local(w)(k):
                raise InconsistentPortrait(
                    f"edge ({u}, {w}) color {k}: "
                    f"{self.local(u)(k)} != {self.local(w)(k)}")
            x, u = neighbor(x, self.local(u)(k)), w
        return x

    def _local(self, v: Vertex) -> Permutation:
        hit = self.overrides.get(v)
        return hit if hit is not None else self.base.local(v)

    def is_exact(self, F: PermGroup) -> bool:
        # a finite patch cannot change finiteness of the singular set
        return self.base.is_exact(F)

    def describe(self) -> str:
        return f"patched({self.base.describe()}, {len(self.overrides)} overrides)"


class FilledPortrait(Automorphism):
    """An automorphism prescribed on a connected skeleton and filled outward
    by the least valid element of a fill group.

    On the skeleton, each vertex has a prescribed image and local
    permutation.  Off the skeleton, each vertex has a single color
    constraint inherited from its neighbor toward the skeleton, and the
    lexicographically least fill-group element matching it is chosen.  The
    construction exists whenever the fill group can always solve one-point
    constraints produced by the prescribed data, which is guaranteed when
    the prescribed permutations preserve the fill group's orbits.

    Projection lemma: a connected subtree is convex, so for v off the
    skeleton every geodesic from v to a skeleton vertex passes through the
    projection of v (its nearest skeleton vertex).  The first step toward
    the skeleton is therefore the first color of the geodesic from v to any
    skeleton vertex, and the anchor serves for all v.

    Subclasses give the anchor and the on-skeleton lookup: _skeleton_index
    (None off the skeleton), _skeleton_image and _skeleton_sigma.
    """

    def __init__(self, fill: PermGroup, anchor: Vertex):
        super().__init__(fill.degree)
        self.fill = fill
        self.anchor = anchor

    def _skeleton_index(self, v: Vertex) -> Optional[int]:
        raise NotImplementedError

    def _skeleton_image(self, i: int) -> Vertex:
        raise NotImplementedError

    def _skeleton_sigma(self, i: int) -> Permutation:
        raise NotImplementedError

    def _steps(self, v: Vertex, memo: dict) -> list[tuple[Vertex, Vertex, int]]:
        """The steps (w, u, k), u = neighbor(w, k), from v toward the
        skeleton, up to the first u that memo holds or the skeleton
        contains.  v must be off the skeleton.  By the projection lemma the
        geodesic from v to the anchor holds every step; filling along them
        from the far end keeps the evaluation depth independent of the
        distance."""
        steps = []
        for k in geodesic_colors(v, self.anchor):
            u = neighbor(v, k)
            steps.append((v, u, k))
            if u in memo or self._skeleton_index(u) is not None:
                break
            v = u
        return steps

    def _local(self, v: Vertex) -> Permutation:
        i = self._skeleton_index(v)
        if i is not None:
            return self._skeleton_sigma(i)
        for w, u, k in reversed(self._steps(v, self._local_memo)):
            sol = self._fill_element(k, self.local(u)(k), w)
            self._local_memo[w] = sol
        return sol

    def ball_locals(self, R: int) -> Iterator[tuple[Vertex, Permutation]]:
        """(v, local(v)) for every v in ball(BASE, R), in ball order,
        filled level by level from the previous level's permutations, with
        no walk toward the anchor and no memo written.

        ball lists the children of each vertex together, d of them at BASE
        and d - 1 elsewhere, so the parent of the j-th vertex of level
        n >= 2 is entry j // (d - 1) of level n - 1.  The reports cannot
        change: by the projection lemma the first step from v toward the
        skeleton is the first step toward the anchor, and for v off the
        geodesic [BASE, anchor] that is the edge back toward BASE, of
        color v[-1].  So off the skeleton and off [BASE, anchor], v gets
        the fill element _local gives it, solved from its parent's
        permutation; the at most d(BASE, anchor) vertices of [BASE, anchor]
        off the skeleton go through local.
        """
        anchor, depth = self.anchor, len(self.anchor)
        per_parent = self.d - 1
        # the permutations of levels n - 1 and n, in ball order
        prev: list[Permutation] = []
        level: list[Permutation] = []
        n = 0
        for v in ball(BASE, R, self.d):
            if len(v) != n:
                prev, level, n = level, [], len(v)
            i = self._skeleton_index(v)
            if i is not None:
                s = self._skeleton_sigma(i)
            elif n <= depth and v == anchor[:n]:
                s = self.local(v)
            else:
                k = v[-1]
                s = self._fill_element(
                    k, prev[len(level) // per_parent if n > 1 else 0](k), v)
            level.append(s)
            yield v, s

    def _fill_element(self, k: int, target: int, at: Vertex) -> Permutation:
        """The least fill element sending color k to target, solved once
        per one-point constraint and fill group; OrbitViolation names the
        vertex at."""
        sol = self.fill.least((k, target))
        if sol is None:
            raise OrbitViolation(
                f"no fill element maps color {k} to {target} at {at}")
        return sol

    def _apply(self, v: Vertex) -> Vertex:
        i = self._skeleton_index(v)
        if i is not None:
            return self._skeleton_image(i)
        for w, u, k in reversed(self._steps(v, self._apply_memo)):
            x = neighbor(self.apply(u), self.local(u)(k))
            self._apply_memo[w] = x
        return x


class SegmentPortrait(FilledPortrait):
    """A filled portrait whose skeleton is a finite geodesic segment:
    vertex i maps to images[i] with local permutation sigmas[i]."""

    def __init__(self, vertices: Sequence[Vertex], images: Sequence[Vertex],
                 sigmas: Sequence[Permutation], fill: PermGroup):
        if not (len(vertices) == len(images) == len(sigmas)):
            raise TreeLocalError("skeleton arrays must have equal lengths")
        if not vertices:
            raise TreeLocalError("skeleton must be nonempty")
        # one pass per concern.  First adjacency, taking each edge's color:
        # two vertices are adjacent iff one is the other plus that letter.
        # In a tree a walk repeats a vertex exactly when it backtracks, that
        # is when two consecutive edges share a color: refused here
        colors = []
        for u, w in zip(vertices, vertices[1:]):
            if w and w[:-1] == u:
                k = w[-1]
            elif u and u[:-1] == w:
                k = u[-1]
            else:
                raise TreeLocalError("skeleton vertices must be consecutive")
            if colors and colors[-1] == k:
                raise TreeLocalError(f"skeleton backtracks at {u}")
            colors.append(k)
        super().__init__(fill, vertices[0])
        # then each edge's sigmas agree on its color k, and sigma sends k to
        # the image edge (so the images are consecutive too)
        for i, k in enumerate(colors):
            c = sigmas[i](k)
            if c != sigmas[i + 1](k):
                raise InconsistentPortrait(
                    f"sigma at {vertices[i]} and {vertices[i + 1]} disagree "
                    f"on edge color {k}")
            x = images[i]  # neighbor(x, c), inline
            if (x[:-1] if x and x[-1] == c else x + (c,)) != images[i + 1]:
                raise InconsistentPortrait(
                    f"images of {vertices[i]}, {vertices[i + 1]} are not "
                    f"related by sigma on color {k}")
        self.skeleton = tuple(vertices)
        self.images = tuple(images)
        self.sigmas = tuple(sigmas)
        self._index = {v: i for i, v in enumerate(self.skeleton)}
        self._back: Optional[dict[Vertex, Vertex]] = None

    def _skeleton_index(self, v: Vertex) -> Optional[int]:
        return self._index.get(v)

    def _preimage(self, v: Vertex) -> Optional[Vertex]:
        """The skeleton vertex whose image is v: the images read backward,
        from a dict built on first use."""
        if self._back is None:
            self._back = dict(zip(self.images, self.skeleton))
        return self._back.get(v)

    def _skeleton_image(self, i: int) -> Vertex:
        return self.images[i]

    def _skeleton_sigma(self, i: int) -> Permutation:
        return self.sigmas[i]

    def is_exact(self, F: PermGroup) -> bool:
        return self.fill.is_subgroup_of(F)

    def describe(self) -> str:
        return f"portrait(segment of {len(self.skeleton)} vertices)"


class LinePortrait(FilledPortrait):
    """A filled portrait whose skeleton is a bi-infinite line.

    The vertex map on the line is affine: index_map = (sign, shift) sends
    v_i to v_{sign i + shift}.  With sign +-1 it moves neighbors to
    neighbors, and its inverse j -> sign (j - shift) gives the preimage of
    a line vertex by one index_of and one vertex lookup.
    sigma_at gives the local permutation at v_i.  sigma_at(i) must
    depend only on i mod m and on the line colors e(j) with |j - i| <= 3
    or |j + i| <= 3, as the translation and the rotation of localaction do.
    By LineSpec.tail, sigma_at and every edge condition then repeat with
    period P past index +-seam, so checking the edges up to the seam plus
    one period on each side checks the whole line, and so does the
    membership of sigma_at in F on one period of each tail.  A sign other
    than +-1 raises TreeLocalError, and a period above LINE_PERIOD_CAP
    raises SizeLimitExceeded, before any check.
    """

    def __init__(self, line: LineSpec, index_map: tuple[int, int],
                 sigma_at: Callable[[int], Permutation], fill: PermGroup,
                 m: int = 1):
        sign, shift = index_map
        if sign not in (1, -1):
            raise TreeLocalError(f"index map sign {sign} is not +1 or -1")
        super().__init__(fill, line.anchor)
        self.line = line
        self.sign, self.shift = sign, shift
        self.sigma_at = sigma_at
        self.seam, self.period = line.tail(m)
        if self.period > LINE_PERIOD_CAP:
            raise SizeLimitExceeded(
                f"line period {self.period} exceeds LINE_PERIOD_CAP "
                f"{LINE_PERIOD_CAP}")
        self._check()

    def _check(self):
        reach = self.seam + self.period
        for i in range(-reach, reach):
            k = self.line.edge_color(i + 1)
            if self.sigma_at(i)(k) != self.sigma_at(i + 1)(k):
                raise InconsistentPortrait(
                    f"sigma at line indices {i}, {i + 1} disagree on color {k}")
            # the image edge (v_j, v_{j + sign}) must carry the color sigma
            # sends k to
            j = self.sign * i + self.shift
            if self.sigma_at(i)(k) != self.line.edge_color(max(j, j + self.sign)):
                raise InconsistentPortrait(
                    f"sigma at index {i} sends color {k} off the image edge")

    def _skeleton_index(self, v: Vertex) -> Optional[int]:
        return self.line.index_of(v)

    def _skeleton_image(self, i: int) -> Vertex:
        return self.line.vertex(self.sign * i + self.shift)

    def _preimage(self, v: Vertex) -> Optional[Vertex]:
        j = self.line.index_of(v)
        if j is None:
            return None
        return self.line.vertex(self.sign * (j - self.shift))

    def _skeleton_sigma(self, i: int) -> Permutation:
        return self.sigma_at(i)

    def is_exact(self, F: PermGroup) -> bool:
        """Off the line every local permutation lies in the fill group; on
        the line only the indices inside the seam can leave F once one
        period of each tail lies in F."""
        if not self.fill.is_subgroup_of(F):
            return False
        return all(self.sigma_at(i) in F and self.sigma_at(-i) in F
                   for i in range(self.seam, self.seam + self.period))

    def describe(self) -> str:
        return "portrait(line)"


class Compose(Automorphism):
    """apply(v) = g(h(v)); the local permutation obeys the cocycle rule
    sigma(gh, v) = sigma(g, h v) o sigma(h, v)."""

    def __init__(self, g: Automorphism, h: Automorphism):
        if g.d != h.d:
            raise TreeLocalError(f"degree mismatch {g.d} vs {h.d}")
        super().__init__(g.d)
        self.g = g
        self.h = h

    def _apply(self, v: Vertex) -> Vertex:
        return self.g.apply(self.h.apply(v))

    def _local(self, v: Vertex) -> Permutation:
        return self.g.local(self.h.apply(v)).after(self.h.local(v))

    def is_exact(self, F: PermGroup) -> bool:
        return self.g.is_exact(F) and self.h.is_exact(F)

    def describe(self) -> str:
        return f"({self.g.describe()} * {self.h.describe()})"


class Inverse(Automorphism):
    """The inverse automorphism.  Where g reads the preimage of v off its
    own data (g._preimage: the images of a segment portrait's skeleton, a
    line portrait's affine index map), that is the answer.  Elsewhere it
    walks the image-side geodesic and pulls each color back through the
    local permutation.

    The walk may start from any pair (u, g u): from (BASE, g BASE) or from
    the last pair walked, whichever image is nearer v.  Iterating the
    inverse, as a negative power does, then costs one short walk a step."""

    def __init__(self, g: Automorphism):
        super().__init__(g.d)
        self.g = g
        self._last: Optional[tuple[Vertex, Vertex]] = None

    def _apply(self, v: Vertex) -> Vertex:
        u = self.g._preimage(v)
        return u if u is not None else self._walk(v)

    def _walk(self, v: Vertex) -> Vertex:
        """g^-1(v) by the walk, from whichever known pair is nearer."""
        u, x = BASE, self.g.apply(BASE)
        if self._last is not None and distance(self._last[1], v) < distance(x, v):
            u, x = self._last
        for c in geodesic_colors(x, v):
            k = self.g.local(u).inv()(c)
            u = neighbor(u, k)
            x = neighbor(x, c)
        self._last = (u, x)
        return u

    def _local(self, v: Vertex) -> Permutation:
        return self.g.local(self.apply(v)).inv()

    def is_exact(self, F: PermGroup) -> bool:
        return self.g.is_exact(F)

    def describe(self) -> str:
        return f"inv({self.g.describe()})"


class Power(Automorphism):
    """g^n, evaluated by n applications of g (of its inverse for n < 0), so
    the evaluation depth does not grow with n.  The local permutation
    follows the cocycle rule: sigma(g^n, v) is the product of sigma(g, g^j v)
    for j = 0..n-1, later factors applied last."""

    def __init__(self, g: Automorphism, n: int):
        super().__init__(g.d)
        self.g = g if n >= 0 else Inverse(g)
        self.n = abs(n)

    def _apply(self, v: Vertex) -> Vertex:
        for _ in range(self.n):
            v = self.g.apply(v)
        return v

    def _local(self, v: Vertex) -> Permutation:
        s = Permutation.identity(self.d)
        for _ in range(self.n):
            s = self.g.local(v).after(s)
            v = self.g.apply(v)
        return s

    def is_exact(self, F: PermGroup) -> bool:
        return self.n == 0 or self.g.is_exact(F)

    def describe(self) -> str:
        return f"pow({self.g.describe()}, {self.n})"


def power(g: Automorphism, n: int) -> Automorphism:
    """g composed with itself n times; negative n inverts first."""
    return Power(g, n)


# --- displacement classification ---

#: classify's step bound R = base + per_unit * d(e, g e), as (base,
#: per_unit).  The displacement drops at every step of the midpoint
#: iteration, so d(e, g e) steps already suffice; the rest is margin.
CLASSIFY_STEP_BOUND = (4, 2)


class Elliptic(NamedTuple):
    fixed: Vertex


class InversionMove(NamedTuple):
    edge: EdgeRef


class Loxodromic(NamedTuple):
    length: int
    axis_point: Vertex


MoveClass = Elliptic | InversionMove | Loxodromic


def classify(g: Automorphism) -> MoveClass:
    """Elliptic / inversion / loxodromic classification by the midpoint
    iteration: replace v by the midpoint of [v, g v] (testing both
    endpoints when the midpoint is an edge) while the displacement
    decreases.  The final displacement is 0 for elliptic elements, 1 for
    inversions (with g swapping the last edge), and the translation
    length for loxodromics (certified by d(v, g^2 v) = 2 length).
    CLASSIFY_STEP_BOUND bounds the number of steps."""
    v = BASE
    disp = distance(v, g.apply(v))
    base, per_unit = CLASSIFY_STEP_BOUND
    R = base + per_unit * disp
    bound = (f"{R} steps (CLASSIFY_STEP_BOUND: {base} + {per_unit} * "
             f"displacement {disp})")
    for _ in range(R + 1):
        if disp == 0:
            return Elliptic(v)
        m = midpoint(v, g.apply(v))
        candidates = [m] if isinstance(m, Vertex) else list(m.endpoints())
        best = min(candidates, key=lambda u: distance(u, g.apply(u)))
        best_disp = distance(best, g.apply(best))
        if best_disp >= disp:
            break
        v, disp = best, best_disp
    else:
        raise RadiusExhausted(f"midpoint iteration did not settle within {bound}")
    gv = g.apply(v)
    if distance(v, g.apply(gv)) == 2 * disp:
        return Loxodromic(disp, v)
    if disp == 1 and g.apply(gv) == v:
        return InversionMove(edge_between(v, gv))
    raise RadiusExhausted(
        f"iteration stalled at displacement {disp} without certifying a class")


def eta(g: Automorphism) -> int:
    """Parity of the displacement of the base vertex; a homomorphism to
    Z/2, and the parity at any vertex since T is bipartite."""
    return distance(BASE, g.apply(BASE)) % 2


# --- membership in U(F'), G(F), G(F,F') ---


class MembershipCertificate(NamedTuple):
    radius: int
    singular_in_radius: tuple[Vertex, ...]
    in_Uprime_in_radius: bool
    exact: bool


def certify_membership(g: Automorphism, F: PermGroup, Fp: PermGroup,
                       R: int) -> MembershipCertificate:
    singular = []
    in_up = True
    for v, s in g.ball_locals(R):
        if s not in F:
            singular.append(v)
        if s not in Fp:
            in_up = False
    return MembershipCertificate(
        radius=R,
        singular_in_radius=tuple(singular),
        in_Uprime_in_radius=in_up,
        exact=g.is_exact(F),
    )

