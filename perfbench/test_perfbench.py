"""Unit tests of the benchmark's own accounting.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from stats import MIN_BEYOND, TooFewSamples, median_quartiles, percentile  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_fold_subtracts_children_and_tiles_the_root():
    fake = FakeClock()
    clock = layers.LayerClock(clock=fake, record=("inner",))

    def inner():
        fake.spend(2.0)

    def outer():
        fake.spend(1.0)
        clock.wrap("inner", inner)()
        fake.spend(3.0)
        clock.wrap("inner", inner)()

    def body():
        fake.spend(0.5)
        clock.wrap("outer", outer)()
        fake.spend(0.25)

    _, seconds = clock.run(body)
    assert seconds == 8.75
    assert clock.self_s["inner"] == 4.0
    assert clock.self_s["outer"] == 4.0
    assert clock.self_s[layers.ROOT] == 0.75
    assert sum(clock.self_s.values()) == seconds
    assert clock.calls["inner"] == 2
    assert clock.calls["outer"] == 1
    assert clock.durations["inner"] == [2.0, 2.0]


def test_reentry_counts_one_call_and_exceptions_close_frames():
    fake = FakeClock()
    clock = layers.LayerClock(clock=fake)

    def leaf():
        fake.spend(1.0)
        raise KeyError("boom")

    wrapped_leaf = clock.wrap("layer", leaf)

    def middle():
        fake.spend(1.0)
        with pytest.raises(KeyError):
            wrapped_leaf()

    _, seconds = clock.run(clock.wrap("layer", middle))
    assert clock.depth == 0
    assert clock.calls["layer"] == 1
    assert clock.self_s["layer"] == 2.0
    assert sum(clock.self_s.values()) == seconds == 2.0


def test_install_rebinds_every_lookup_and_restore_undoes_it():
    import repro.network as network_package
    import repro.network.engine as engine
    import repro.network.fairness as fairness
    import repro.network.simulator as simulator
    from repro.core import RepairPlanner
    from repro.network import FluidSimulator

    original_allocate = fairness.max_min_allocate
    original_advance = FluidSimulator.__dict__["advance_to"]
    original_plan = RepairPlanner.__dict__["plan"]
    clock = layers.LayerClock()
    patches = layers.install(clock, ROOT)
    try:
        for module in (fairness, simulator, network_package):
            assert module.max_min_allocate is not original_allocate
        assert engine.waterfill is network_package.waterfill
        assert FluidSimulator.__dict__["advance_to"] is not original_advance
        assert RepairPlanner.__dict__["plan"] is not original_plan
    finally:
        patches.restore()
    for module in (fairness, simulator, network_package):
        assert module.max_min_allocate is original_allocate
    assert FluidSimulator.__dict__["advance_to"] is original_advance
    assert RepairPlanner.__dict__["plan"] is original_plan


def test_percentile_needs_samples_beyond_it():
    values = [float(i) for i in range(1, 1001)]
    assert percentile(values, 99) == 990.0
    assert percentile(values, 50) == 500.0
    with pytest.raises(TooFewSamples):
        percentile(values[:-1], 99)
    assert percentile(values[: 2 * MIN_BEYOND], 50) == MIN_BEYOND
    with pytest.raises(TooFewSamples):
        percentile(values[: 2 * MIN_BEYOND - 1], 50)


def test_percentile_counts_misses_as_infinite():
    values = [1.0] * 985
    assert percentile(values, 99, misses=15) == math.inf
    assert percentile(values, 50, misses=15) == 1.0
    # Misses count toward the sample size as well.
    assert percentile([1.0] * 990, 99, misses=10) == 1.0


def test_median_quartiles():
    assert median_quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 1.5, 4.5)
