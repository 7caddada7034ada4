"""Command-line front end.

Subcommand style: ``treelocal <group|branch|element|qm|chains|tree> ...``.
All results go to stdout as JSON (or flat text with --format text),
diagnostics to stderr.  Exit codes: 0 success / complete evidence,
1 invalid input or usage, 2 incomplete evidence (search bounds exhausted).
Every invalid input, a usage error included, ends in one ``error:`` line
on stderr.

The TREELOCAL_CONFIG environment variable names a JSON file with
default run-configuration fields; --config overrides it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .errors import TreeLocalError
from .tree import Vertex, ball
from .autom import (
    Elliptic,
    InversionMove,
    certify_membership,
    classify,
    eta,
)
from .medianqm import (
    MedianQM,
    eval_qm,
    homogenize,
    homogenize_limit,
    independence_search,
)
from .chains import (
    ComplexWindow,
    aligned_basis,
    aligned_closure_check,
    exactness_check,
    restriction_correspondence_check,
)
from .analysis import RunConfig, theorem1_branch, validate_inputs
from .serialize import (
    context_from_spec,
    decode_element,
    decode_group_spec,
    decode_segment,
    decode_vertex,
    dot_ball,
)

CONFIG_ENV = "TREELOCAL_CONFIG"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCOMPLETE = 2

# what main reports as invalid input (exit 1) instead of a traceback
INPUT_ERRORS = (TreeLocalError, OSError, json.JSONDecodeError, ValueError)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INVALID


def _parse_json(text: str):
    """json.loads, with input nested past the parser's recursion limit
    refused as invalid."""
    try:
        return json.loads(text)
    except RecursionError:
        raise TreeLocalError("JSON input nested too deeply") from None


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read())


def _flatten(obj, prefix: str = "") -> list[str]:
    if isinstance(obj, dict):
        out = []
        for k in sorted(obj):
            out.extend(_flatten(obj[k], f"{prefix}{k}."))
        return out
    return [f"{prefix[:-1]} = {json.dumps(obj)}"]


def _emit(obj, fmt: str) -> None:
    if fmt == "text":
        print("\n".join(_flatten(obj)))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _run_config(args) -> RunConfig:
    """The RunConfig of --config (or the CONFIG_ENV file) and --seed.  The
    file must hold a JSON object whose entries RunConfig accepts; it is
    checked before --seed replaces its seed."""
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    data = {}
    if path:
        data = _load_json_file(path)
        if not isinstance(data, dict):
            raise TreeLocalError(f"config {path} is not a JSON object")
    cfg = RunConfig(**data)
    if getattr(args, "seed", None) is None:
        return cfg
    return RunConfig(**{**cfg.to_dict(), "seed": args.seed})


def _classify_dict(cls) -> dict:
    if isinstance(cls, Elliptic):
        return {"class": "elliptic", "fixed": str(cls.fixed)}
    if isinstance(cls, InversionMove):
        return {"class": "inversion",
                "edge": {"near": str(cls.edge.near), "color": cls.edge.color}}
    return {"class": "loxodromic", "length": cls.length,
            "axis_point": str(cls.axis_point)}


def _element_from_args(args, d: int, ctx=None):
    if getattr(args, "word", None):
        return decode_element({"op": "word", "w": args.word}, d, ctx)
    if getattr(args, "element", None):
        return decode_element(_parse_json(args.element), d, ctx)
    if getattr(args, "element_file", None):
        return decode_element(_load_json_file(args.element_file), d, ctx)
    raise TreeLocalError("no element given (use --word, --element or --element-file)")


# --- subcommand handlers ---


def cmd_group_validate(args) -> int:
    d, f_gens, fp_gens = decode_group_spec(_load_json_file(args.spec))
    report, ctx = validate_inputs(d, f_gens, fp_gens)
    _emit(report.to_dict(), args.format)
    return EXIT_OK if ctx is not None else EXIT_INVALID


def cmd_branch(args) -> int:
    d, f_gens, fp_gens = decode_group_spec(_load_json_file(args.spec))
    report, ctx = validate_inputs(d, f_gens, fp_gens)
    if ctx is None:
        _emit(report.to_dict(), args.format)
        return EXIT_INVALID
    branch = theorem1_branch(ctx, _run_config(args))
    out = branch.to_dict()
    if args.evidence == "summary":
        out["evidence"] = {k: {"pass": v.get("pass", False)}
                           for k, v in out["evidence"].items()}
    _emit(out, args.format)
    return EXIT_OK if branch.complete else EXIT_INCOMPLETE


def cmd_element(args) -> int:
    ctx = context_from_spec(_load_json_file(args.spec)) if args.spec else None
    d = ctx.d if ctx is not None else args.d
    g = _element_from_args(args, d, ctx)
    if args.element_cmd == "build":
        out = {"ok": True, "expression": g.describe(),
               "base_image": str(g.apply(Vertex()))}
    elif args.element_cmd == "classify":
        out = _classify_dict(classify(g))
        out["eta"] = eta(g)
    elif args.element_cmd == "apply":
        v = decode_vertex(args.vertex, d)
        out = {"vertex": str(v), "image": str(g.apply(v))}
    else:
        if ctx is None:
            return _fail("certify needs --spec with the group pair")
        cert = certify_membership(g, ctx.F, ctx.Fp, args.radius)
        out = {
            "radius": cert.radius,
            "singular": [str(v) for v in cert.singular_in_radius],
            "in_Uprime": cert.in_Uprime_in_radius,
            "exact": cert.exact,
        }
    _emit(out, args.format)
    return EXIT_OK


def cmd_qm(args) -> int:
    ctx = context_from_spec(_load_json_file(args.spec))
    if args.qm_cmd == "independence":
        cert = independence_search(ctx, args.rank, args.max_seg, args.bound)
        if cert is None:
            _emit({"rank": 0, "target": args.rank,
                   "detail": "search exhausted"}, args.format)
            return EXIT_INCOMPLETE
        _emit(cert.to_dict(), args.format)
        return EXIT_OK
    s = decode_segment(_parse_json(args.segment), ctx.d)
    f = MedianQM(s, decode_vertex(args.base, ctx.d), ctx)
    g = _element_from_args(args, ctx.d, ctx)
    if args.qm_cmd == "eval":
        res = eval_qm(f, g)
        out = {"value": res.value, "forward": res.forward_count,
               "backward": res.backward_count}
    else:
        out = {"homogenize": homogenize(f, g)}
        if args.limit:
            out["limit"] = [str(q) for q in homogenize_limit(f, g, args.limit)]
    _emit(out, args.format)
    return EXIT_OK


def cmd_chains(args) -> int:
    if args.chains_cmd == "restriction":
        ctx = context_from_spec(_load_json_file(args.spec))
        report = restriction_correspondence_check(ctx, args.radius, args.degree)
        _emit(report, args.format)
        return EXIT_OK if not report["failures"] else EXIT_INCOMPLETE
    points = tuple(Vertex.parse(p) for p in args.points.split(","))
    if args.chains_cmd == "exactness":
        w = ComplexWindow(points, args.max_degree)
        out = {"exact": exactness_check(w),
               "points": [str(p) for p in points],
               "max_degree": args.max_degree}
    else:
        # the aligned checks read the window's points only
        w = ComplexWindow(points, 0)
        basis = aligned_basis(w, args.degree)
        out = {
            "degree": args.degree,
            "aligned_basis": [[str(v) for v in t] for t in basis],
            "closed_under_boundary": aligned_closure_check(w, args.degree),
        }
    _emit(out, args.format)
    return EXIT_OK


def cmd_tree(args) -> int:
    center = decode_vertex(args.center, args.d)
    if args.tree_cmd == "dot":
        print(dot_ball(args.d, args.radius, center))
    else:
        vertices = [str(v) for v in ball(center, args.radius, args.d)]
        _emit({"d": args.d, "radius": args.radius, "count": len(vertices),
               "vertices": vertices}, args.format)
    return EXIT_OK


def _at_least_one(text: str) -> int:
    """An int argument of at least 1, as RunConfig asks of its bounds."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs an int of at least 1, not {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as invalid input."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treelocal",
        description="Exact computation with tree automorphisms having "
                    "almost prescribed local actions.")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="group-pair utilities")
    group_sub = p_group.add_subparsers(dest="group_cmd", required=True)
    p_validate = group_sub.add_parser("validate")
    p_validate.add_argument("spec", help="group-spec JSON file")

    p_branch = sub.add_parser("branch", help="run the dichotomy pipeline")
    p_branch.add_argument("spec")
    p_branch.add_argument("--config", default=None)
    p_branch.add_argument("--seed", type=int, default=None)
    p_branch.add_argument("--evidence", choices=["full", "summary"],
                          default="full")

    p_el = sub.add_parser("element", help="build and inspect automorphisms")
    el_sub = p_el.add_subparsers(dest="element_cmd", required=True)
    for name in ("build", "classify", "apply", "certify"):
        p = el_sub.add_parser(name)
        p.add_argument("--d", type=int, default=3)
        p.add_argument("--spec", default=None, help="group-spec JSON file")
        p.add_argument("--word", default=None)
        p.add_argument("--element", default=None, help="element JSON string")
        p.add_argument("--element-file", default=None)
        if name == "apply":
            p.add_argument("--vertex", required=True)
        if name == "certify":
            p.add_argument("--radius", type=int, default=6)

    p_qm = sub.add_parser("qm", help="median quasimorphisms")
    qm_sub = p_qm.add_subparsers(dest="qm_cmd", required=True)
    for name in ("eval", "homogenize"):
        p = qm_sub.add_parser(name)
        p.add_argument("--spec", required=True)
        p.add_argument("--segment", required=True, help="segment JSON string")
        p.add_argument("--base", default="e")
        p.add_argument("--word", default=None)
        p.add_argument("--element", default=None)
        p.add_argument("--element-file", default=None)
        if name == "homogenize":
            p.add_argument("--limit", type=int, default=0)
    p_ind = qm_sub.add_parser("independence")
    p_ind.add_argument("--spec", required=True)
    p_ind.add_argument("--rank", type=_at_least_one, default=3)
    p_ind.add_argument("--max-seg", type=_at_least_one, default=5)
    p_ind.add_argument("--bound", type=_at_least_one, default=8)

    p_ch = sub.add_parser("chains", help="finite chain-complex checks")
    ch_sub = p_ch.add_subparsers(dest="chains_cmd", required=True)
    for name in ("exactness", "aligned"):
        p = ch_sub.add_parser(name)
        p.add_argument("--points", required=True,
                       help="comma-separated vertex words")
        if name == "exactness":
            p.add_argument("--max-degree", type=int, default=3)
        else:
            p.add_argument("--degree", type=int, default=2)
    p_restr = ch_sub.add_parser("restriction")
    p_restr.add_argument("--spec", required=True)
    p_restr.add_argument("--radius", type=int, default=3)
    p_restr.add_argument("--degree", type=int, default=2)

    p_tree = sub.add_parser("tree", help="tree exports")
    tree_sub = p_tree.add_subparsers(dest="tree_cmd", required=True)
    for name in ("dot", "ball"):
        p = tree_sub.add_parser(name)
        p.add_argument("--d", type=int, default=3)
        p.add_argument("--radius", type=int, default=2)
        p.add_argument("--center", default="e")

    return parser


@functools.lru_cache(maxsize=1)
def _parser(build) -> argparse.ArgumentParser:
    """The parser `build` makes, built once per builder."""
    return build()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser(build_parser).parse_args(argv)
    # looked up when main runs, so a handler replaced after the first call
    # (by a wrapper or a test double) is the one called
    handlers = {"group": cmd_group_validate, "branch": cmd_branch,
                "element": cmd_element, "qm": cmd_qm, "chains": cmd_chains,
                "tree": cmd_tree}
    try:
        return handlers[args.command](args)
    except INPUT_ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
