"""Checks of the pace scaling arithmetic on synthetic samples.

Run with ``python3 -m pytest perfbench/test_pace.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pace import MIN_SAMPLES, REFERENCE, PaceSampler  # noqa: E402


def sampler(units):
    """Owner samples at t = 0, 1, 2, ... with the given unit times."""
    pace = PaceSampler()
    pace.times = [float(index) for index in range(len(units))]
    pace.units = list(units)
    return pace


def test_owner_only_time_scales_by_the_median_unit_in_the_window():
    pace = sampler([REFERENCE] * 20 + [2 * REFERENCE] * 20)
    assert pace.scaled(0, 15, 3.0, []) == pytest.approx(3.0)
    assert pace.scaled(22, 38, 3.0, []) == pytest.approx(1.5)


def test_short_window_borrows_the_nearest_samples():
    pace = sampler([REFERENCE] * 10 + [2 * REFERENCE] * 10)
    # No sample inside [12.2, 12.4]; the window widens to samples 8-17,
    # two fast and eight slow.
    assert pace.pace(12.2, 12.4) == 2 * REFERENCE
    assert MIN_SAMPLES <= 10


def test_provider_busy_time_scales_by_the_provider_units():
    pace = sampler([REFERENCE] * 40)
    # One request inside [10, 20]: 4 s long, 0.5 s of it the provider's two
    # units.  Its neighbours widen the unit sample, and their units say the
    # provider ran at half the reference pace.
    slow = 2 * REFERENCE
    requests = [
        (5.0, 6.0, slow, slow),
        (7.0, 8.0, slow, slow),
        (11.0, 15.0, 0.25, 0.25),
        (21.0, 22.0, slow, slow),
        (23.0, 24.0, slow, slow),
    ]
    # 10 s of operation: 3.5 s provider work, 0.5 s provider units, 6 s owner.
    provider_pace = sorted([slow] * 8 + [0.25, 0.25])[4:6]
    expected = 6.0 + 3.5 * REFERENCE / (sum(provider_pace) / 2)
    assert pace.scaled(10, 20, 10.0, requests) == pytest.approx(expected)


def test_requests_outside_the_window_do_not_count_as_busy_time():
    pace = sampler([REFERENCE] * 40)
    requests = [(1.0, 2.0, REFERENCE, REFERENCE), (30.0, 31.0, REFERENCE, REFERENCE)]
    assert pace.scaled(10, 20, 10.0, requests) == pytest.approx(10.0)
