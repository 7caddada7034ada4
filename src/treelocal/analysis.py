"""The dichotomy pipeline: validate a pair (F, F'), decide the branch by
2-transitivity of F', and assemble a machine-checkable evidence bundle.

Branch 1 (F' 2-transitive) gathers the transitivity evidence: one
segment class per length, the line with its translation and rotation and
their exact membership certificates, edge transitivity of the line
stabilizer, even-parity transports, and identically vanishing median
quasimorphism samples.  Branch 2 gathers the obstruction witness, the
boundary escape element, a nonvanishing median quasimorphism, and an
exact-rank independence certificate.

The pipeline verifies combinatorial hypotheses and witnesses; it never
claims the cohomological conclusions themselves.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import Frozen, TreeLocalError
from .permgroups import (
    PermGroup,
    generate,
    is_2transitive_direct,
    is_transitive,
    orbits,
    parse_cycles,
    pick_tau,
    preserves_orbits,
)
from .tree import BASE, Segment, Vertex, distance
from .autom import Loxodromic, WordTranslation, classify, certify_membership, eta
from .localaction import (
    GroupContext,
    boundary_escape_witness,
    build_line,
    e2_obstruction,
    edge_transitivity_check,
    is_translate_bruteforce,
    rotation_r,
    segment_orbit_census,
    translation_t,
    transport_into_line,
)
from .medianqm import (
    MedianQM,
    eval_qm,
    find_nonvanishing_qm,
    homogenize,
    homogenize_limit,
    independence_search,
)
from .serialize import encode_segment


class ValidationReport(NamedTuple):
    d: int
    order_F: int
    order_Fp: int
    orbits_F: tuple[tuple[int, ...], ...]
    orbits_Fp: tuple[tuple[int, ...], ...]
    degree_ok: bool
    is_subgroup: bool
    proper_inclusion: bool
    orbits_preserved: bool
    F_transitive: bool
    Fp_transitive: bool
    Fp_2transitive: bool

    @property
    def ok(self) -> bool:
        return (self.degree_ok and self.is_subgroup
                and self.proper_inclusion and self.orbits_preserved)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "order_F": self.order_F,
            "order_Fprime": self.order_Fp,
            "orbits_F": [list(b) for b in self.orbits_F],
            "orbits_Fprime": [list(b) for b in self.orbits_Fp],
            "flags": {
                "degree_ok": self.degree_ok,
                "is_subgroup": self.is_subgroup,
                "proper_inclusion": self.proper_inclusion,
                "orbits_preserved": self.orbits_preserved,
                "F_transitive": self.F_transitive,
                "Fprime_transitive": self.Fp_transitive,
                "Fprime_2transitive": self.Fp_2transitive,
            },
            "valid": self.ok,
        }


def _as_group(gens: Sequence[str], d: int) -> PermGroup:
    return generate([parse_cycles(g, d) for g in gens], d)


def validate_inputs(d: int, F_gens: Sequence[str], Fp_gens: Sequence[str]
                    ) -> tuple[ValidationReport, Optional[GroupContext]]:
    """Check the standing hypotheses on the pair generated by the cycle
    strings and build a GroupContext when they all hold.  Failed checks
    are flags in the report, not exceptions."""
    F = _as_group(F_gens, d)
    Fp = _as_group(Fp_gens, d)
    report = ValidationReport(
        d=d,
        order_F=F.order,
        order_Fp=Fp.order,
        orbits_F=tuple(orbits(F)),
        orbits_Fp=tuple(orbits(Fp)),
        degree_ok=d >= 3,
        is_subgroup=F.is_subgroup_of(Fp),
        proper_inclusion=F.is_subgroup_of(Fp) and F.order < Fp.order,
        orbits_preserved=preserves_orbits(F, Fp),
        F_transitive=is_transitive(F),
        Fp_transitive=is_transitive(Fp),
        Fp_2transitive=is_2transitive_direct(Fp),
    )
    if not report.ok:
        return report, None
    return report, GroupContext(d, F, Fp)


#: The fields of RunConfig and their defaults, in report order.
_RUN_DEFAULTS = {
    "census_n": 4,
    "sample_size": 200,
    "membership_radius": 8,
    "window": 8,
    "transport_samples": 20,
    "transport_max_len": 5,
    "qm_max_seg": 5,
    "qm_search_bound": 8,
    "qm_rank_max_seg": 6,
    "rank_target": 3,
    "limit_N": 8,
    "seed": 0,
}


class RunConfig(Frozen):
    """The sample sizes, windows and search bounds of theorem1_branch, and
    its seed, given by keyword.  Each value is an int, and each but the
    seed is at least 1: a sample, window or bound of 0 would let its check
    pass without testing anything.  Anything else raises TreeLocalError
    naming the first offending key."""

    __slots__ = _fields = tuple(_RUN_DEFAULTS)

    def __init__(self, **values: int):
        for key, value in values.items():
            if key not in _RUN_DEFAULTS:
                raise TreeLocalError(f"config key {key!r} is not a RunConfig field")
            if type(value) is not int:
                import json  # only to quote the refused value
                raise TreeLocalError(f"config key {key!r} needs an int, "
                                     f"not {json.dumps(value, default=repr)}")
            if key != "seed" and value < 1:
                raise TreeLocalError(f"config key {key!r} needs at least 1, "
                                     f"not {value}")
        for key, default in _RUN_DEFAULTS.items():
            object.__setattr__(self, key, values.get(key, default))

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _RUN_DEFAULTS}


class BranchReport(NamedTuple):
    branch: str
    evidence: dict
    parameters: dict
    complete: bool

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "complete": self.complete,
            "evidence": self.evidence,
            "parameters": self.parameters,
        }


def _random_reduced_word(rng: random.Random, d: int, length: int) -> tuple[int, ...]:
    out: list[int] = []
    for _ in range(length):
        k = rng.randint(1, d)
        while out and out[-1] == k:
            k = rng.randint(1, d)
        out.append(k)
    return tuple(out)


def _branch1_evidence(ctx: GroupContext, cfg: RunConfig) -> dict:
    rng = random.Random(cfg.seed)
    ev: dict = {}

    sizes = [len(segment_orbit_census(ctx, n)) for n in range(1, cfg.census_n + 1)]
    ev["segment_census"] = {
        "sizes": sizes,
        "pass": all(s == 1 for s in sizes),
    }

    L = build_line(ctx)
    ev["line"] = {
        "anchor": str(L.anchor),
        "forward_period": list(L.forward.period),
        "backward_period": list(L.backward.period),
        "tau": pick_tau(ctx.F)[0].cycle_string(),
        "pass": True,
    }

    t = translation_t(ctx, L)
    cls = classify(t)
    cert = certify_membership(t, ctx.F, ctx.Fp, cfg.membership_radius)
    allowed = {L.vertex(0), L.vertex(-1)}
    ev["translation"] = {
        "class": type(cls).__name__,
        "length": getattr(cls, "length", None),
        "eta": eta(t),
        "certificate_exact": cert.exact,
        "in_Uprime": cert.in_Uprime_in_radius,
        "singular": [str(v) for v in cert.singular_in_radius],
        "pass": (isinstance(cls, Loxodromic) and cls.length == 2
                 and cert.exact and cert.in_Uprime_in_radius
                 and set(cert.singular_in_radius) <= allowed),
    }

    r = rotation_r(ctx, L)
    reflects = all(r.apply(L.vertex(i)) == L.vertex(-i)
                   for i in range(-cfg.window, cfg.window + 1))
    rcert = certify_membership(r, ctx.F, ctx.Fp, cfg.membership_radius)
    ev["rotation"] = {
        "reflects_window": reflects,
        "certificate_exact": rcert.exact,
        "in_Uprime": rcert.in_Uprime_in_radius,
        "pass": reflects and rcert.exact and rcert.in_Uprime_in_radius,
    }

    edge_trans = edge_transitivity_check(L, [t, r], cfg.window)
    ev["edge_transitivity"] = {"window": cfg.window, "pass": edge_trans}

    ok = 0
    for _ in range(cfg.transport_samples):
        length = rng.randint(1, cfg.transport_max_len)
        start = Vertex(_random_reduced_word(rng, ctx.d, rng.randint(0, 3)))
        colors = list(_random_reduced_word(rng, ctx.d, length))
        if start and colors[0] == start[-1]:
            colors[0] = next(k for k in range(1, ctx.d + 1)
                             if k != start[-1] and (length < 2 or k != colors[1]))
        seg = Segment(start, tuple(colors))
        g = transport_into_line(ctx, seg, L)
        on_line = all(L.index_of(g.apply(v)) is not None for v in seg.vertices())
        even = distance(seg.start, g.apply(seg.start)) % 2 == 0
        if on_line and even:
            ok += 1
    ev["even_transports"] = {
        "samples": cfg.transport_samples,
        "ok": ok,
        "pass": ok == cfg.transport_samples,
    }

    zero = 0
    for _ in range(cfg.sample_size):
        s = Segment(BASE, _random_reduced_word(rng, ctx.d, rng.randint(1, 4)))
        f = MedianQM(s, BASE, ctx)
        g = WordTranslation(
            Vertex(_random_reduced_word(rng, ctx.d, rng.randint(1, 6))), ctx.d)
        if eval_qm(f, g).value == 0:
            zero += 1
    ev["qm_vanishing"] = {
        "samples": cfg.sample_size,
        "zero": zero,
        "pass": zero == cfg.sample_size,
    }
    return ev


def _branch2_evidence(ctx: GroupContext, cfg: RunConfig) -> dict:
    ev: dict = {}

    wit = e2_obstruction(ctx)
    if wit is None:
        ev["obstruction"] = {"pass": False, "detail": "no witness found"}
    else:
        brute = is_translate_bruteforce(ctx, wit.gamma1, wit.gamma2)
        ev["obstruction"] = {
            "a": wit.a,
            "b1": wit.b1,
            "b2": wit.b2,
            "gamma1": encode_segment(wit.gamma1),
            "gamma2": encode_segment(wit.gamma2),
            "translate": wit.translate,
            "bruteforce_translate": brute,
            "pass": not wit.translate and not brute,
        }

    found = find_nonvanishing_qm(ctx, cfg.qm_max_seg, cfg.qm_search_bound)
    if found is None:
        ev["nonvanishing_qm"] = {
            "pass": False,
            "detail": "search exhausted",
            "max_seg": cfg.qm_max_seg,
            "search_bound": cfg.qm_search_bound,
        }
        ev["independence"] = {"pass": False, "detail": "no quasimorphism found"}
        ev["limit_agreement"] = {"pass": False, "detail": "no quasimorphism found"}
        return ev
    f, g, value = found
    ev["nonvanishing_qm"] = {
        "segment": list(f.s.colors),
        "element": g.describe(),
        "value": value,
        "pass": value != 0,
    }

    limit = homogenize_limit(f, g, cfg.limit_N)
    tail_ok = all(limit[n - 1] == Fraction(value)
                  for n in range(max(6, cfg.limit_N - 2), cfg.limit_N + 1))
    ev["limit_agreement"] = {
        "limit_sequence": [str(q) for q in limit],
        "homogenize": value,
        "pass": tail_ok and homogenize(f, g) == value,
    }

    cert = independence_search(ctx, cfg.rank_target, cfg.qm_rank_max_seg,
                               cfg.qm_search_bound)
    if cert is None:
        ev["independence"] = {
            "pass": False,
            "detail": "rank target not reached",
            "target": cfg.rank_target,
        }
    else:
        ev["independence"] = {**cert.to_dict(),
                              "pass": cert.rank >= cfg.rank_target}
    return ev


def theorem1_branch(ctx: GroupContext, cfg: Optional[RunConfig] = None) -> BranchReport:
    """Decide the branch by 2-transitivity of F' and assemble the evidence
    bundle for it.  Exhausted searches surface as failed evidence flags,
    never silently."""
    cfg = cfg or RunConfig()
    if ctx.two_transitive:
        branch = "BoundedlyAcyclic"
        evidence = _branch1_evidence(ctx, cfg)
    else:
        branch = "InfiniteH2"
        evidence = _branch2_evidence(ctx, cfg)
    _, radius = boundary_escape_witness(ctx.d)
    evidence["boundary_escape"] = {"divergence_radius": radius,
                                   "pass": radius <= 12}
    complete = all(item.get("pass", False) for item in evidence.values())
    return BranchReport(
        branch=branch,
        evidence=evidence,
        parameters=cfg.to_dict(),
        complete=complete,
    )
