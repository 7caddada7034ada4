"""The treelocal benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold rounds of one workload for about S seconds, one at a time, each
in a fresh interpreter (bench/worker.py), so no memo survives from one
round to the next.  A round is not started when the rounds so far say it
would end after S seconds, except to reach the minimum round count.

Each start is pinned to the CPU that probes fastest at that moment, and
its set-up and round seconds are rescaled to a reference host speed from
the probes taken around and during it (bench/calib.py), because the
shared host's speed drifts by up to 2x.

With --trace 0 the last line of stdout reports the end-to-end metrics:
median rescaled set-up seconds, median rescaled round seconds and median
peak resident memory of the rounds.  With --trace 1 untraced and traced
rounds alternate, and it reports the per-layer metrics (medians over the
traced rounds) and trace.overhead_ratio (a ratio of wall seconds).  The line before it
records the rounds' samples, wall seconds and probe medians among them, the
treelocal module that was measured, the git sha, the Python version and
the CPU count.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
# Rounds an untraced run makes even when they take longer than --seconds;
# a traced run makes at least one untraced and one traced round.
MIN_ROUNDS = 2
# Set-up-only starts before the rounds, so that setup_s is a median of
# at least this many samples even when a round takes most of the run.
SETUP_SAMPLES = 9
# The CPUs the run may use; each start is pinned to the fastest of them.
CPUS = os.sched_getaffinity(0)
# Host-speed probes before each start, to rescale its set-up time.
SETUP_PROBES = 20
# The whole run must end within 180 s.
DEADLINE_S = 170.0


def monotonic() -> float:
    """The clock the worker stamps t_ready with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(workload: str, seed: int, trace: int, workdir: Path,
               timeout: float, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    cpu = calib.pin_fastest(CPUS)
    before = [calib.probe_s() for _ in range(SETUP_PROBES)]
    t_spawn = monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: a round did not end within {DEADLINE_S} s of the start")
    wall = monotonic() - t_spawn
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["cpu"] = cpu
    out["setup_wall_s"] = out["t_ready"] - t_spawn
    out["setup_s"] = calib.scale(out["setup_wall_s"], before + out["setup_probes"])
    if "round_s" in out:
        # untraced rounds carry host-speed probes; wall seconds leave their time out
        out["round_wall_s"] = out["round_s"] - out.get("probe_spent_s", 0.0)
        if "probes" in out:
            out["round_s"] = calib.scale_series(out["round_wall_s"], out["probes"])
    out["wall_s"] = wall
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "treelocal" / "__init__.py").is_file():
        print(f"error: no treelocal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = monotonic()
    kinds = [0, 1] if args.trace else [0]
    minimum = {0: 1, 1: 1} if args.trace else {0: MIN_ROUNDS}
    rounds: dict[int, list[dict]] = {k: [] for k in kinds}
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        starts = [run_worker(args.workload, args.seed, 0, workdir,
                             DEADLINE_S - (monotonic() - start), setup_only=True)
                  for _ in range(0 if args.trace else SETUP_SAMPLES)]
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            i += 1
            done = rounds[kind]
            elapsed = monotonic() - start
            if len(done) >= minimum[kind]:
                estimate = statistics.median(r["wall_s"] for r in done)
                if elapsed + estimate > args.seconds:
                    if all(len(rounds[k]) >= minimum[k] for k in kinds):
                        break
                    continue
            done.append(run_worker(args.workload, args.seed, kind, workdir,
                                   DEADLINE_S - elapsed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [r for k in kinds for r in rounds[k]]
    failures = [f for r in every for f in r["failures"]]
    plain = rounds[0]
    if args.trace:
        traced = rounds[1]
        names = traced[0]["metrics"]
        metrics = {name: statistics.median(r["metrics"][name] for r in traced)
                   for name in names}
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["round_wall_s"] for r in traced)
            / statistics.median(r["round_wall_s"] for r in plain))
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in starts + plain),
            "round_s": statistics.median(r["round_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    units = unit_table(args.trace)
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "round_s_samples": [r["round_s"] for r in plain],
        "round_wall_s_samples": [r["round_wall_s"] for r in plain],
        "probe_s_medians": [statistics.median(r["probes"]) for r in plain],
        "cpus": [r["cpu"] for r in plain],
        "setup_s_samples": [r["setup_s"] for r in starts + plain],
        "setup_wall_s_samples": [r["setup_wall_s"] for r in starts + plain],
        "traced_round_wall_s_samples": [r["round_wall_s"] for r in rounds.get(1, [])],
        "digest_checked": sum(r["digest_checked"] for r in every),
        "failures": failures[:20],
        "treelocal_file": plain[0]["treelocal_file"],
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print(json.dumps({"info": info}))
    for f in failures[:20]:
        print(f"failed: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in every),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_table(trace: int) -> dict[str, str]:
    """Units of the metrics a run reports, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
