"""JSON wire formats for segments, lines, group specs and elements, and
the DOT export of a ball.

Encoders produce plain dicts/lists ready for json.dumps; decoders accept
the same shapes.  Vertex text format: dot-separated colors with the base
vertex rendered "e".
"""

from __future__ import annotations

from typing import Optional

from .errors import OutOfRange, TreeLocalError
from .permgroups import generate, parse_cycles
from .tree import (
    EventuallyPeriodic,
    LineSpec,
    Segment,
    Vertex,
    ball,
    neighbor,
    vertex_key,
)
from .autom import (
    Automorphism,
    Compose,
    Diagonal,
    Inverse,
    Patched,
    SubtreeDiagonal,
    WordTranslation,
)
from .localaction import GroupContext, build_line, rotation_r, translation_t


def _field(obj, key: str, what: str, kind: type = object):
    """obj[key], checked to be a JSON object holding key with a value of
    the given kind; malformed input raises TreeLocalError naming the key."""
    if not isinstance(obj, dict):
        raise TreeLocalError(f"{what} must be a JSON object, not {type(obj).__name__}")
    if key not in obj:
        raise TreeLocalError(f"{what} missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise TreeLocalError(f"{what} key {key!r} must be a {kind.__name__}")
    return value


def _integer(obj, key: str, what: str) -> int:
    value = _field(obj, key, what)
    # bool is a subclass of int, but JSON true is not an integer
    if type(value) is not int:
        raise TreeLocalError(f"{what} key {key!r} must be an integer")
    return value


def _list_of(obj, key: str, what: str, kind: type) -> list:
    value = _field(obj, key, what, list)
    if not all(type(k) is kind for k in value):
        raise TreeLocalError(f"{what} key {key!r} must be a list of {kind.__name__}s")
    return value


def _in_range(letters: tuple[int, ...], d: int, what: str) -> tuple[int, ...]:
    if any(not 1 <= k <= d for k in letters):
        raise OutOfRange(f"{what} has colors outside 1..{d}: {list(letters)}")
    return letters


def _colors(obj, key: str, what: str, d: int) -> tuple[int, ...]:
    return _in_range(tuple(_list_of(obj, key, what, int)), d, f"{what} {key!r}")


# --- tree types ---


def decode_vertex(text: str, d: int) -> Vertex:
    """The vertex of its text, refused when a letter lies outside 1..d."""
    return _in_range(Vertex.parse(text), d, f"vertex {text!r}")


def encode_segment(s: Segment) -> dict:
    return {"start": str(s.start), "colors": list(s.colors)}


def decode_segment(obj: dict, d: int) -> Segment:
    return Segment(decode_vertex(_field(obj, "start", "segment", str), d),
                   _colors(obj, "colors", "segment", d))


def decode_line(obj: dict, d: int) -> LineSpec:
    def seq(key: str) -> EventuallyPeriodic:
        o = _field(obj, key, "line", dict)
        pre = _colors(o, "pre", f"line {key}", d) if "pre" in o else ()
        return EventuallyPeriodic(pre, _colors(o, "period", f"line {key}", d))

    return LineSpec(decode_vertex(_field(obj, "anchor", "line", str), d),
                    seq("forward"), seq("backward"))


# --- group specs ---


def decode_group_spec(obj: dict) -> tuple[int, list[str], list[str]]:
    """A group-spec file: {"d": n, "F": [cycles], "Fprime": [cycles]}."""
    return (_integer(obj, "d", "group spec"),
            _list_of(obj, "F", "group spec", str),
            _list_of(obj, "Fprime", "group spec", str))


def context_from_spec(obj: dict) -> GroupContext:
    d, f_gens, fp_gens = decode_group_spec(obj)
    F = generate([parse_cycles(s, d) for s in f_gens], d)
    Fp = generate([parse_cycles(s, d) for s in fp_gens], d)
    return GroupContext(d, F, Fp)


# --- elements ---

#: The most levels an element expression may nest.  Each argument of a
#: compose counts a level, since the arguments are folded into a chain of
#: binary compositions.  Evaluation takes about two frames per level, so
#: near 490 levels overflow Python's default recursion limit; at 200,
#: build, classify, apply and certify succeed under 400 frames of callers.
MAX_ELEMENT_DEPTH = 200


def decode_element(obj: dict, d: int,
                   ctx: Optional[GroupContext] = None) -> Automorphism:
    """The automorphism of an element expression, refused (TreeLocalError)
    when it nests deeper than MAX_ELEMENT_DEPTH levels."""
    return _element(obj, d, ctx, 1)


def _element(obj: dict, d: int, ctx: Optional[GroupContext],
             depth: int) -> Automorphism:
    if depth > MAX_ELEMENT_DEPTH:
        raise TreeLocalError(f"element expression nested deeper than "
                             f"MAX_ELEMENT_DEPTH = {MAX_ELEMENT_DEPTH} levels")
    op = _field(obj, "op", "element")
    what = f"{op!r} element"

    def text(key: str) -> str:
        return _field(obj, key, what, str)

    if op == "word":
        return WordTranslation(Vertex.parse(text("w")), d)
    if op == "diag":
        return Diagonal(parse_cycles(text("perm"), d))
    if op == "subdiag":
        return SubtreeDiagonal(decode_vertex(text("at"), d),
                               parse_cycles(text("perm"), d))
    if op == "compose":
        raw = _field(obj, "args", what, list)
        args = [_element(a, d, ctx, depth + len(raw)) for a in raw]
        if not args:
            raise TreeLocalError("compose needs at least one argument")
        out = args[0]
        for a in args[1:]:
            out = Compose(out, a)
        return out
    if op == "inverse":
        return Inverse(_element(_field(obj, "arg", what), d, ctx, depth + 1))
    if op == "patched":
        base = _element(_field(obj, "base", what), d, ctx, depth + 1)
        pairs = _field(obj, "overrides", what, list)
        if not all(isinstance(e, list) and len(e) == 2
                   and all(isinstance(x, str) for x in e) for e in pairs):
            raise TreeLocalError(f"{what} key 'overrides' must be a list of "
                                 f"[vertex, cycles] string pairs")
        overrides = {decode_vertex(v, d): parse_cycles(p, d) for v, p in pairs}
        return Patched(base, overrides)
    if op == "line":
        if ctx is None:
            if "spec" not in obj:
                raise TreeLocalError("line element needs a group context")
            ctx = context_from_spec(_field(obj, "spec", what, dict))
        if "line" in obj:
            L = decode_line(_field(obj, "line", what), ctx.d)
        else:
            L = build_line(ctx)
        kind = obj.get("kind", "t")
        if kind == "t":
            return translation_t(ctx, L)
        if kind == "r":
            return rotation_r(ctx, L)
        raise TreeLocalError(f"unknown line element kind {kind!r}")
    raise TreeLocalError(f"unknown element op {op!r}")


# --- DOT export ---


def dot_ball(d: int, radius: int, center: Vertex = Vertex()) -> str:
    """Graphviz DOT text of the ball around a vertex, edges labeled with
    their colors."""
    nodes = list(ball(center, radius, d))
    node_set = set(nodes)
    lines = ["graph tree {"]
    for v in nodes:
        lines.append(f'  "{v}";')
    for v in nodes:
        for k in range(1, d + 1):
            w = neighbor(v, k)
            if w in node_set and vertex_key(w) > vertex_key(v):
                lines.append(f'  "{v}" -- "{w}" [label={k}];')
    lines.append("}")
    return "\n".join(lines)
