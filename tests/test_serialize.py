"""JSON wire formats, schemas, and DOT export."""

import json
import pathlib

import pytest

from treelocal.autom import WordTranslation
from treelocal.errors import TreeLocalError
from treelocal.localaction import build_line, translation_t
from treelocal.serialize import (
    context_from_spec,
    decode_element,
    decode_group_spec,
    decode_line,
    decode_segment,
    dot_ball,
    encode_segment,
)
from treelocal.tree import BASE, Segment, Vertex, ball_size

from conftest import equal_on_ball

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas"

SPEC3 = {"d": 3, "F": ["(1 2 3)"], "Fprime": ["(1 2 3)", "(1 2)"]}
SPECD4 = {"d": 4, "F": ["(1 2 3 4)"], "Fprime": ["(1 2 3 4)", "(1 3)"]}


def line_json(L) -> dict:
    """The line.schema.json object of a line."""
    return {
        "anchor": str(L.anchor),
        "forward": {"pre": list(L.forward.pre), "period": list(L.forward.period)},
        "backward": {"pre": list(L.backward.pre), "period": list(L.backward.period)},
    }


class TestRoundTrips:
    def test_vertex(self):
        for text in ("e", "1", "2.1.3"):
            assert str(Vertex.parse(text)) == text

    def test_segment(self):
        s = Segment(Vertex((2,)), (1, 3, 1))
        assert decode_segment(encode_segment(s), 3) == s

    def test_line(self):
        ctx = context_from_spec(SPEC3)
        L = build_line(ctx)
        L2 = decode_line(line_json(L), ctx.d)
        assert all(L2.vertex(i) == L.vertex(i) for i in range(-6, 7))


class TestGroupSpec:
    def test_decode(self):
        d, f, fp = decode_group_spec(SPEC3)
        assert d == 3 and f == ["(1 2 3)"]

    def test_missing_key(self):
        with pytest.raises(TreeLocalError):
            decode_group_spec({"d": 3, "F": []})

    def test_context(self):
        ctx = context_from_spec(SPECD4)
        assert ctx.d == 4 and ctx.F.order == 4 and ctx.Fp.order == 8

    @pytest.mark.parametrize("key, value", [
        ("d", 3.9), ("d", 3.0), ("d", True), ("d", "3"), ("d", None),
        ("F", "(1 2 3)"), ("F", [1, 2]), ("F", [["(1 2 3)"]]),
        ("Fprime", "(1 2 3)(1 2)"), ("Fprime", {"gens": []}),
    ])
    def test_decoded_as_the_schema_types(self, key, value):
        with pytest.raises(TreeLocalError, match=repr(key)):
            decode_group_spec({**SPEC3, key: value})


class TestDecodeElement:
    def test_word(self):
        g = decode_element({"op": "word", "w": "1.2"}, 3)
        assert g.apply(BASE) == Vertex((1, 2))

    def test_diag_and_subdiag(self):
        g = decode_element({"op": "diag", "perm": "(1 2)"}, 3)
        assert g.apply(Vertex((1,))) == Vertex((2,))
        h = decode_element({"op": "subdiag", "at": "3", "perm": "(1 2)"}, 3)
        assert h.apply(Vertex((3, 1))) == Vertex((3, 2))

    def test_compose_inverse(self):
        expr = {"op": "compose", "args": [
            {"op": "word", "w": "1.2"},
            {"op": "inverse", "arg": {"op": "word", "w": "1.2"}}]}
        g = decode_element(expr, 3)
        assert equal_on_ball(g, WordTranslation(Vertex(), 3), 4)

    def test_patched(self):
        expr = {"op": "patched",
                "base": {"op": "diag", "perm": "(1 2)"},
                "overrides": [["3", "(1 2)"]]}
        g = decode_element(expr, 3)
        assert g.apply(Vertex((3, 1))) == Vertex((3, 2))

    def test_line_element(self):
        ctx = context_from_spec(SPEC3)
        g = decode_element({"op": "line", "kind": "t"}, 3, ctx)
        L = build_line(ctx)
        assert equal_on_ball(g, translation_t(ctx, L), 4)

    def test_line_element_with_explicit_line(self):
        ctx = context_from_spec(SPEC3)
        L = build_line(ctx)
        g = decode_element({"op": "line", "kind": "t",
                            "line": line_json(L)}, 3, ctx)
        assert all(g.apply(L.vertex(i)) == L.vertex(i + 2)
                   for i in range(-4, 5))

    def test_unknown_op(self):
        with pytest.raises(TreeLocalError):
            decode_element({"op": "nope"}, 3)


class TestDot:
    def test_node_and_edge_counts(self):
        text = dot_ball(3, 2)
        nodes = [line for line in text.splitlines()
                 if line.strip().endswith('";')]
        edges = [line for line in text.splitlines() if "--" in line]
        assert len(nodes) == ball_size(2, 3)
        assert len(edges) == ball_size(2, 3) - 1  # a tree

    def test_edge_labels(self):
        text = dot_ball(3, 1)
        assert '[label=1]' in text and '[label=3]' in text
        assert text.startswith("graph tree {")


class TestSchemas:
    def required(self, name: str) -> set:
        data = json.loads((SCHEMA_DIR / name).read_text())
        return set(data.get("required", []))

    def test_all_schemas_parse(self):
        files = list(SCHEMA_DIR.glob("*.schema.json"))
        assert len(files) >= 6
        for f in files:
            data = json.loads(f.read_text())
            assert "$schema" in data

    def test_segment_matches_schema(self):
        enc = encode_segment(Segment(BASE, (1, 2)))
        assert self.required("segment.schema.json") <= set(enc)

    def test_line_matches_schema(self):
        ctx = context_from_spec(SPEC3)
        L = build_line(ctx)
        assert self.required("line.schema.json") <= set(line_json(L))

    def test_group_spec_schema_keys(self):
        assert self.required("group-spec.schema.json") <= set(SPEC3)
