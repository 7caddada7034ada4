"""The benchmark's workloads, as lists of cold operations.

Each operation builds its own GroupContext and automorphisms: the API
operations call ``validate_inputs`` and then ``theorem1_branch``, and the
CLI operations read a group-spec file through ``treelocal.cli.main``.  The
inputs depend only on the workload name and the seed.

Import this module only after ``src/`` is first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import treelocal
import treelocal.cli
from treelocal import PermGroup, RunConfig, all_subgroups

WORKLOADS = ("branch-2t", "branch-h2", "survey")

# (d, F generators, F' generators) of the three canonical pairs.  Sym(3)
# and Sym(4) are 2-transitive, the dihedral group of order 8 is not.
CANONICAL_2T = (
    (3, ("(1 2 3)",), ("(1 2 3)", "(1 2)")),
    (4, ("(1 2 3 4)",), ("(1 2 3 4)", "(1 2)")),
)
CANONICAL_H2 = ((4, ("(1 2 3 4)",), ("(1 2 3 4)", "(1 3)")),)
BRANCH_2T = "BoundedlyAcyclic"
BRANCH_H2 = "InfiniteH2"

# A mid configuration for the survey: small enough for 23 pairs per round,
# large enough that both branches run every evidence item.
SURVEY_CONFIG = {"membership_radius": 6, "qm_max_seg": 3, "qm_search_bound": 6,
                 "qm_rank_max_seg": 3, "rank_target": 2}
SURVEY_PAIRS = 23
SURVEY_2T_PAIRS = 10
EXACTNESS_WINDOWS = 40
EXACTNESS_POINTS = 6
# ball(e, 2) at d = 3, in the order treelocal.ball yields it
EXACTNESS_BALL = ("e", "1", "2", "3", "1.2", "1.3", "2.1", "2.3", "3.1", "3.2")


@dataclass
class Op:
    """One cold operation.  ``run`` is the timed call; ``render`` turns its
    result into an exit code and the text whose sha256 is the reference;
    ``check`` is the structural check that holds for every seed."""

    label: str
    kind: str
    run: Callable[[], object]
    render: Callable[[object], tuple[int, str]]
    check: Callable[[int, str], bool]


def _pair_desc(d: int, F_gens, Fp_gens) -> str:
    return f"d={d} F={';'.join(F_gens)} Fp={';'.join(Fp_gens)}"


def _two_transitive(elements, d: int) -> bool:
    """Independent of treelocal: the images of (1, 2) cover all ordered
    pairs of distinct points."""
    return len({(g[0], g[1]) for g in elements}) == d * (d - 1)


def _render_report(report) -> tuple[int, str]:
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    return (0 if report.complete else 2), text


def _branch_op(d: int, F_gens, Fp_gens, cfg: RunConfig, label: str,
               expected: str) -> Op:
    desc = _pair_desc(d, F_gens, Fp_gens)

    # entry points are looked up at call time, so the tracer's wrappers
    # installed in the package namespace see these calls
    def run():
        report, ctx = treelocal.validate_inputs(d, list(F_gens), list(Fp_gens))
        if ctx is None:
            raise ValueError(f"invalid canonical pair {desc}")
        return treelocal.theorem1_branch(ctx, cfg)

    def check(rc: int, text: str) -> bool:
        out = json.loads(text)
        return rc == 0 and out["complete"] and out["branch"] == expected

    return Op(label=label, kind=f"api theorem1_branch {desc}", run=run,
              render=_render_report, check=check)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = treelocal.cli.main(argv)
    return rc, buf.getvalue()


def _cli_op(label: str, kind: str, argv: list[str],
            check: Callable[[int, str], bool]) -> Op:
    return Op(label=label, kind=kind, run=lambda: _cli(argv),
              render=lambda res: res, check=check)


def valid_pairs() -> list[tuple[int, PermGroup, PermGroup]]:
    """Every (F, F') at d = 3, 4 meeting the standing hypotheses, from
    all_subgroups; the hypotheses are checked here on the element sets."""
    out = []
    for d in (3, 4):
        subs = all_subgroups(d)
        for F, Fp in itertools.product(subs, subs):
            Fe, Fpe = set(F.elements), set(Fp.elements)
            if not (Fe < Fpe):
                continue
            orbits = {frozenset(g[x - 1] for g in Fe) for x in range(1, d + 1)}
            if all(frozenset(g[x - 1] for x in orb) == orb
                   for g in Fpe for orb in orbits):
                out.append((d, F, Fp))
    return out


def exactness_windows(seed: int) -> list[list[str]]:
    """Six-point windows of ball(e, 2) at d = 3, each in ball order."""
    rng = random.Random(seed)
    return [[EXACTNESS_BALL[i] for i in sorted(rng.sample(range(len(EXACTNESS_BALL)),
                                                          EXACTNESS_POINTS))]
            for _ in range(EXACTNESS_WINDOWS)]


def exactness_op(points: list[str]) -> Op:
    joined = ",".join(points)
    label = f"cli chains exactness {joined}"

    def check(rc: int, text: str) -> bool:
        return rc == 0 and json.loads(text)["exact"] is True

    return _cli_op(label, label, ["chains", "exactness", "--points", joined,
                                  "--max-degree", "4"], check)


def survey_ops(seed: int, workdir: str) -> list[Op]:
    """Writes one spec file per pair and the mid config into workdir."""
    pairs = valid_pairs()
    two_t = [_two_transitive(Fp.elements, d) for d, F, Fp in pairs]
    if len(pairs) != SURVEY_PAIRS or sum(two_t) != SURVEY_2T_PAIRS:
        raise ValueError(f"expected {SURVEY_PAIRS} valid pairs, {SURVEY_2T_PAIRS} "
                         f"2-transitive; all_subgroups gave {len(pairs)}, {sum(two_t)}")
    config = os.path.join(workdir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(SURVEY_CONFIG, fh)
    specs = []
    for i, (d, F, Fp) in enumerate(pairs):
        F_gens = [g.cycle_string() for g in F.generators]
        Fp_gens = [g.cycle_string() for g in Fp.generators]
        path = os.path.join(workdir, f"pair{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"d": d, "F": F_gens, "Fprime": Fp_gens}, fh)
        specs.append((path, _pair_desc(d, F_gens, Fp_gens)))

    validate, branch, restriction = [], [], []
    for (path, desc), tt in zip(specs, two_t):
        def check_valid(rc, text, tt=tt):
            out = json.loads(text)
            return rc == 0 and out["valid"] and out["flags"]["Fprime_2transitive"] == tt

        kind = f"cli group validate {desc}"
        validate.append(_cli_op(kind, kind, ["group", "validate", path], check_valid))

        def check_branch(rc, text, tt=tt):
            out = json.loads(text)
            return (out["branch"] == (BRANCH_2T if tt else BRANCH_H2)
                    and rc == (0 if out["complete"] else 2))

        kind = f"cli branch {desc}"
        branch.append(_cli_op(f"{kind} seed={seed}", kind,
                              ["branch", path, "--config", config, "--seed", str(seed)],
                              check_branch))
        if tt:
            def check_restriction(rc, text):
                out = json.loads(text)
                return (rc == 0 and not out["failures"]
                        and out["tuples_checked"] == out["transported"] == out["consistent"])

            kind = f"cli chains restriction {desc}"
            restriction.append(_cli_op(kind, kind, ["chains", "restriction", "--spec", path,
                                                    "--radius", "3", "--degree", "2"],
                                       check_restriction))
    exactness = [exactness_op(w) for w in exactness_windows(seed)]
    return validate + branch + restriction + exactness


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The operations of one round of the workload."""
    if workload == "branch-2t":
        cfg = RunConfig(seed=seed)
        return [_branch_op(d, F, Fp, cfg,
                           f"api theorem1_branch {_pair_desc(d, F, Fp)} seed={seed}",
                           BRANCH_2T)
                for d, F, Fp in CANONICAL_2T]
    if workload == "branch-h2":
        return [_branch_op(d, F, Fp, RunConfig(),
                           f"api theorem1_branch {_pair_desc(d, F, Fp)}", BRANCH_H2)
                for d, F, Fp in CANONICAL_H2]
    if workload == "survey":
        return survey_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
