"""Branch 2 over every pair at d = 5 whose F' is not 2-transitive.

Runs theorem1_branch on each pair under the default RunConfig and under
the wide bounds (qm_max_seg, qm_search_bound, qm_rank_max_seg) =
(6, 11, 8), and prints one line per pair: the orders of F and F' and, per
config, complete, incomplete or refused (SizeLimitExceeded).  Exits 1 when
some pair is complete under neither.  Not collected by pytest (it takes
about a minute); run it from the repository root with

    PYTHONPATH=src python tests/sweep_degree5.py
"""

import sys

from treelocal.analysis import RunConfig, theorem1_branch
from treelocal.errors import SizeLimitExceeded

from conftest import valid_contexts

WIDE = RunConfig(qm_max_seg=6, qm_search_bound=11, qm_rank_max_seg=8)


def verdict(ctx, cfg: RunConfig) -> str:
    try:
        return "complete" if theorem1_branch(ctx, cfg).complete else "incomplete"
    except SizeLimitExceeded:
        return "refused"


def main() -> int:
    missed = 0
    for ctx in valid_contexts(5):
        if ctx.two_transitive:
            continue
        default, wide = verdict(ctx, RunConfig()), verdict(ctx, WIDE)
        print(f"|F| = {ctx.F.order}, |F'| = {ctx.Fp.order}: "
              f"default {default}, wide {wide}")
        missed += "complete" not in (default, wide)
    print(f"{missed} pairs complete under neither config")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
