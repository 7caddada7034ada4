"""Host-speed probes, to divide the shared host's speed out of a time.

On a shared host the speed of Python code drifts by up to 2x for seconds
to minutes at a time.  ``probe`` is a fixed piece of pure-Python work of
the kind treelocal does (tuple words, dict counts, small calls); it never
changes with treelocal, so the seconds it takes measure the host alone.

``Sampler`` times one probe every ``PERIOD_S`` of wall time from a
SIGALRM handler.  Python runs the handler in the main thread between two
bytecodes of the timed code, so each probe runs on the CPU, and in the
phase of the host, that the timed code is running in.

A time is rescaled to the reference host speed by ``scale``: it is
multiplied by ``(REFERENCE_PROBE_S / p) ** SENSITIVITY``, where p is the
median probe seconds seen while it was measured; ``scale_series`` does
this step by step through a long round.  ``pin_fastest`` keeps
the probes and the timed code on one CPU, as the CPUs of the host drift
apart.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time

# Typical seconds of one probe on the host the benchmark was defined on
# (Python 3.11.7, 2 vCPUs of an Intel Xeon at 2.0 GHz); quiet phases of
# that host gave 0.55 ms, busy ones 1.1 ms.
REFERENCE_PROBE_S = 0.001
PERIOD_S = 0.05
# How much a slowdown of the probe slows the timed code, as an exponent:
# when the host makes the probe k times slower, it makes treelocal's
# rounds and set-up about k ** SENSITIVITY times slower.  Fitting
# log(wall seconds) on log(probe seconds) over three sets of runs gave
# slopes from 0.47 to 1.06 (the noise of the probes pulls a fitted slope
# below the true one); of 0.5, 0.75 and 1, 0.75 gave the smallest
# run-to-run spread of rounds and set-up over the three sets.
SENSITIVITY = 0.75
# A round's host speed at one step is the median of the probes within
# WINDOW // 2 steps (half a second) of it.
WINDOW = 20


def _step(word: tuple, k: int) -> tuple:
    if word and word[-1] == k:
        return word[:-1]
    return word + (k,)


def probe() -> int:
    """Fixed work of about a millisecond; returns a checksum."""
    counts: dict = {}
    word: tuple = ()
    for i in range(1200):
        word = _step(word, i * 7 % 4 + 1)
        if len(word) > 5:
            word = word[2:]
        counts[word] = counts.get(word, 0) + 1
    return len(counts)


def probe_s() -> float:
    """Seconds of one probe.  The collector is held off, so that the
    probe's allocations do not start a collection of the caller's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def pin_fastest(cpus: set[int], probes: int = 15) -> int:
    """Pin this process to the CPU of ``cpus`` whose probes run fastest now;
    processes it starts later inherit the pin.  Returns the CPU."""
    speeds = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = statistics.median(probe_s() for _ in range(probes))
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return best


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference host speed."""
    return seconds * (REFERENCE_PROBE_S / statistics.median(probes)) ** SENSITIVITY


def scale_series(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference host speed, from probes taken at even
    steps of wall time through them.  Each step is rescaled by the median
    of the probes within WINDOW // 2 steps of it, so that a round that spans
    more than one phase of the host is rescaled phase by phase."""
    half = WINDOW // 2
    return seconds * statistics.fmean(
        (REFERENCE_PROBE_S / statistics.median(probes[max(0, i - half):i + half + 1]))
        ** SENSITIVITY
        for i in range(len(probes)))


class Sampler:
    """Probes the host every PERIOD_S while started.  ``probes`` holds the
    probe seconds, ``spent_s`` the wall seconds the handler took in all."""

    def __init__(self):
        self.probes: list[float] = []
        self.spent_s = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe_s())
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        self.previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
