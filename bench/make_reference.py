"""Write reference.json: the sha256 of every output the benchmark checks.

    python3 bench/make_reference.py

Records, for the default seeds, the digest of every theorem1_branch report
and every CLI stdout of the three workloads, and the digest of the
exactness output for every six-point window a seed can pick, so those are
covered for any seed.  Exit codes are recorded per operation without its
seed and must agree across seeds.  Every output must pass its structural
check, so a broken program cannot become the reference.  Run it only when
an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads

DEFAULT_SEEDS = tuple(range(10))


def record(ops, digests: dict, exit_codes: dict) -> None:
    results, _ = worker.run_round(ops)
    for op, (result, error) in zip(ops, results):
        if error is not None:
            raise SystemExit(f"{op.label}: raised {error}")
        rc, text = op.render(result)
        if not op.check(rc, text):
            raise SystemExit(f"{op.label}: structural check failed")
        if exit_codes.setdefault(op.kind, rc) != rc:
            raise SystemExit(f"{op.kind}: exit code depends on the seed")
        digests[op.label] = worker.sha256_text(text)


def main() -> int:
    digests: dict[str, str] = {}
    exit_codes: dict[str, int] = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as workdir:
        for seed in DEFAULT_SEEDS:
            for name in workloads.WORKLOADS:
                if name == "branch-h2" and seed != DEFAULT_SEEDS[0]:
                    continue  # branch-h2 ignores the seed
                print(f"{name} seed {seed}", file=sys.stderr)
                record(workloads.build_ops(name, seed, workdir), digests, exit_codes)
    windows = itertools.combinations(workloads.EXACTNESS_BALL, workloads.EXACTNESS_POINTS)
    record([workloads.exactness_op(list(w)) for w in windows], digests, exit_codes)
    out = {
        "default_seeds": list(DEFAULT_SEEDS),
        "exit_codes": dict(sorted(exit_codes.items())),
        "digests": dict(sorted(digests.items())),
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
