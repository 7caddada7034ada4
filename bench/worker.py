"""One cold round of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR

Set-up (interpreter start, ``import treelocal`` from this checkout's
``src/``, building the inputs) ends at ``t_ready``, a CLOCK_MONOTONIC
reading the parent compares with the moment it started this process.  The
round then runs every operation once, timed as a whole; with ``--trace 1``
the layer tracer is installed first.  Outputs are checked against
``reference.json`` after the timed region.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Host-speed probes right after set-up, to rescale the set-up time.
SETUP_PROBES = 20

sys.path.insert(0, str(SRC))
import treelocal  # noqa: E402

if not Path(treelocal.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"error: treelocal was imported from {treelocal.__file__}, "
             f"not from {SRC}")

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_kb() -> int:
    """VmHWM of this process.  ru_maxrss would not do: Linux carries the
    parent's high-water mark across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_round(ops, tracer=None, sampler=None) -> tuple[list, float]:
    """Run every operation once; returns [(result, error)] and the round's
    wall seconds.  A raising operation is recorded and the round goes on.
    A sampler probes the host speed during the round."""
    if tracer is not None:
        tracer.install()
        tracer.start()
    if sampler is not None:
        sampler.start()
    results = []
    t0 = time.perf_counter()
    try:
        for op in ops:
            try:
                results.append((op.run(), None))
            except Exception as exc:  # a failed operation, not a failed round
                results.append((None, f"{type(exc).__name__}: {exc}"))
        round_s = time.perf_counter() - t0
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.stop()
            tracer.uninstall()
    return results, round_s


def check_outputs(ops, results, reference: dict) -> tuple[list[str], int]:
    """Failure messages, and how many outputs had a reference digest.

    An operation fails if it raised, exited with another code than the
    reference's, printed or returned text whose sha256 differs from the
    reference's, or fails its structural check."""
    digests = reference["digests"]
    exit_codes = reference["exit_codes"]
    failures = []
    digest_checked = 0
    for op, (result, error) in zip(ops, results):
        if error is not None:
            failures.append(f"{op.label}: raised {error}")
            continue
        rc, text = op.render(result)
        if op.kind in exit_codes and rc != exit_codes[op.kind]:
            failures.append(f"{op.label}: exit {rc}, expected {exit_codes[op.kind]}")
            continue
        if op.label in digests:
            digest_checked += 1
            if sha256_text(text) != digests[op.label]:
                failures.append(f"{op.label}: output differs from the reference")
                continue
        try:
            ok, why = op.check(rc, text), ""
        except (ValueError, KeyError, TypeError) as exc:
            ok, why = False, f" ({type(exc).__name__}: {exc})"
        if not ok:
            failures.append(f"{op.label}: structural check failed{why}")
    return failures, digest_checked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up, to sample set-up time alone")
    args = parser.parse_args()

    ops = workloads.build_ops(args.workload, args.seed, args.workdir)
    tracer = spans.Tracer() if args.trace else None
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_probes = [calib.probe_s() for _ in range(SETUP_PROBES)]
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready, "setup_probes": setup_probes}))
        return 0
    sampler = None if args.trace else calib.Sampler()
    results, round_s = run_round(ops, tracer, sampler)
    peak_rss_mb = peak_rss_kb() / 1024

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    failures, digest_checked = check_outputs(ops, results, reference)
    out = {
        "t_ready": t_ready,
        "round_s": round_s,
        "setup_probes": setup_probes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "digest_checked": digest_checked,
        "treelocal_file": str(Path(treelocal.__file__).resolve().relative_to(ROOT)),
    }
    if sampler is not None:
        out["probes"] = sampler.probes
        out["probe_spent_s"] = sampler.spent_s
    if tracer is not None:
        out["metrics"] = tracer.metrics()
        out["layer_self_s"] = tracer.layer_self_s()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
