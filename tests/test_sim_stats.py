"""Tests for latency/rate measurement helpers."""

import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim
from repro.sim import LatencyRecorder, RateMeter


def test_latency_recorder_filters_by_window():
    rec = LatencyRecorder(window_start=100.0, window_end=200.0)
    rec.record(50.0, 10.0)     # before window: dropped
    rec.record(150.0, 20.0)    # inside
    rec.record(250.0, 30.0)    # after: dropped
    assert rec.count == 1
    assert rec.mean() == 20.0


def test_latency_percentiles():
    rec = LatencyRecorder()
    for latency in range(1, 101):
        rec.record(0.0, float(latency))
    assert rec.percentile(50) == pytest.approx(50.5)
    assert rec.percentile(95) == pytest.approx(95.05)


def test_latency_summary_in_microseconds():
    rec = LatencyRecorder()
    rec.record(0.0, 5000.0)  # 5 us
    summary = rec.summary()
    assert summary["mean_us"] == pytest.approx(5.0)
    assert summary["p95_us"] == pytest.approx(5.0)


def test_latency_empty_summary_is_zero():
    assert LatencyRecorder().summary()["mean_us"] == 0.0
    assert LatencyRecorder().mean() == 0.0
    assert LatencyRecorder().percentile(95) == 0.0


def test_rate_meter_mops():
    meter = RateMeter(window_start=0.0, window_end=1e6)  # 1 ms window
    for i in range(1000):
        meter.record(float(i))
    assert meter.mops() == pytest.approx(1000 / 1e6 * 1e3)  # 1 Mops


def test_rate_meter_window_filter():
    meter = RateMeter(window_start=100.0, window_end=200.0)
    meter.record(50.0)
    meter.record(150.0)
    meter.record(150.0)
    meter.record(201.0)
    assert meter.count == 2
    assert meter.total == 4


def test_rate_meter_zero_window():
    meter = RateMeter(window_start=100.0, window_end=100.0)
    assert meter.mops() == 0.0


def test_rate_meter_override_end():
    meter = RateMeter(window_start=0.0, window_end=float("inf"))
    for _ in range(500):
        meter.record(10.0)
    assert meter.mops(window_end=1e3) == pytest.approx(500.0)


def test_rate_meter_windows_are_half_open():
    """An op completing exactly at a window boundary belongs to the
    *next* window — adjacent meters must not both count it."""
    first = RateMeter(window_start=0.0, window_end=100.0)
    second = RateMeter(window_start=100.0, window_end=200.0)
    for meter in (first, second):
        meter.record(100.0)
    assert first.count == 0
    assert second.count == 1


def test_latency_recorder_window_is_half_open():
    rec = LatencyRecorder(window_start=100.0, window_end=200.0)
    rec.record(100.0, 1.0)  # start boundary: included
    rec.record(200.0, 2.0)  # end boundary: excluded
    assert rec.count == 1
    assert rec.mean() == 1.0


def test_rate_meter_unbounded_window_raises():
    """mops() used to silently return 0.0 when the window never
    closed — a measurement bug that looked like zero throughput."""
    meter = RateMeter(window_start=0.0, window_end=float("inf"))
    meter.record(10.0)
    with pytest.raises(ValueError, match="unbounded"):
        meter.mops()


# -- bit-identical to numpy, without it ----------------------------------

QS = (0, 5, 50, 95, 99, 99.9, 100)
VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**9),
)


@st.composite
def latency_samples(draw):
    """1–50 000 non-negative floats and ints with duplicates: drawn
    values repeated, plus seeded fresh ones (hypothesis's buffer cannot
    hold 50 000 draws itself)."""
    pool = draw(st.lists(VALUES, min_size=1, max_size=30))
    n = draw(st.one_of(st.integers(1, 300), st.integers(1, 50_000)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fresh = draw(st.sampled_from(("none", "floats", "ints")))
    out = []
    for _ in range(n):
        if fresh == "none" or rng.random() < 0.3:
            out.append(rng.choice(pool))
        elif fresh == "floats":
            out.append(rng.expovariate(1 / 3000.0))
        else:
            out.append(rng.randrange(10**6))
    return out


@settings(max_examples=150, deadline=None)
@given(latency_samples(), st.floats(min_value=0.0, max_value=100.0))
def test_mean_and_percentiles_equal_numpy(samples, q):
    rec = LatencyRecorder()
    rec.samples = samples
    arr = np.asarray(samples)
    assert rec.mean() == arr.mean()
    for p in QS + (q,):
        assert rec.percentile(p) == np.percentile(arr, p), p
    assert rec.summary() == {
        "mean_us": float(arr.mean()) / 1e3,
        "p5_us": float(np.percentile(arr, 5)) / 1e3,
        "p50_us": float(np.percentile(arr, 50)) / 1e3,
        "p95_us": float(np.percentile(arr, 95)) / 1e3,
        "p99_us": float(np.percentile(arr, 99)) / 1e3,
        "p999_us": float(np.percentile(arr, 99.9)) / 1e3,
    }


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 136, 8192, 8193, 40_000])
def test_pairwise_block_boundaries(n):
    rng = random.Random(n)
    rec = LatencyRecorder()
    rec.samples = [rng.uniform(0.0, 1e4) for _ in range(n)]
    assert rec.mean() == np.mean(rec.samples)


def test_percentile_outside_0_100_raises_like_numpy():
    rec = LatencyRecorder()
    rec.record(0.0, 1.0)
    for q in (-1, 100.5, float("nan")):
        with pytest.raises(ValueError):
            np.percentile(rec.samples, q)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            rec.percentile(q)


def test_the_kernel_does_not_use_numpy():
    sim_dir = os.path.dirname(repro.sim.__file__)
    for name in os.listdir(sim_dir):
        if name.endswith(".py"):
            with open(os.path.join(sim_dir, name)) as fh:
                assert "numpy" not in fh.read(), name
