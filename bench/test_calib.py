"""Checks of the host-speed probes.

    python3 -m pytest -q bench/test_calib.py
"""

from __future__ import annotations

import signal
import time

import pytest

import calib


def test_scale_is_identity_at_reference_speed():
    probes = [calib.REFERENCE_PROBE_S] * 3
    assert calib.scale(2.0, probes) == 2.0


def test_scale_shrinks_time_measured_on_a_slow_host():
    slow = [2 * calib.REFERENCE_PROBE_S] * 3
    fast = [calib.REFERENCE_PROBE_S / 2] * 3
    assert calib.scale(2.0, slow) < 2.0 < calib.scale(2.0, fast)
    assert calib.scale(2.0, slow) == 2.0 * 2 ** -calib.SENSITIVITY


def test_sampler_probes_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calib.Sampler()
    sampler.start()
    deadline = time.perf_counter() + 10 * calib.PERIOD_S
    while time.perf_counter() < deadline:
        sum(range(1000))
    sampler.stop()
    assert len(sampler.probes) >= 5
    assert 0 < sampler.spent_s < 10 * calib.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scale_series_rescales_each_phase_of_a_round():
    fast, slow = calib.REFERENCE_PROBE_S, 2 * calib.REFERENCE_PROBE_S
    probes = [fast] * 100 + [slow] * 100
    expected = 2.0 * (1 + 2 ** -calib.SENSITIVITY) / 2
    assert calib.scale_series(2.0, probes) == pytest.approx(expected)
    # one stray slow probe in a steady phase changes nothing
    assert calib.scale_series(2.0, [fast] * 50 + [slow] + [fast] * 50) == pytest.approx(2.0)
