"""Measurement helpers: latency percentiles and windowed rates.

Experiments follow the paper's methodology: run with a warm-up period,
then measure operations completed inside a window and report millions of
operations per second (Mops) plus average / 5th / 95th percentile
latency (Figure 11's error bars are the 5th and 95th percentiles).

Means and percentiles are computed in pure Python with NumPy's own
arithmetic, so they are bit-identical to ``np.mean`` / ``np.percentile``
(the oracle in ``tests/test_sim_stats.py``) without importing NumPy.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro import _pairwise_sum


def _percentile(ordered: Sequence[float], q: float) -> float:
    """NumPy's default (``linear``) percentile of sorted values."""
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100]; got %r" % (q,))
    if not ordered:
        return 0.0
    index = (len(ordered) - 1) * (q / 100)
    if index >= len(ordered) - 1:
        return ordered[-1]
    below = math.floor(index)
    a, b = ordered[below], ordered[below + 1]
    t = index - below
    # NumPy's _lerp: from the nearer end, so t = 1 gives exactly b
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


class LatencyRecorder:
    """Collects per-operation latencies (ns) inside a measurement window.

    The window is half-open, ``[window_start, window_end)``: an op
    completing exactly at a boundary belongs to the window *starting*
    there, so adjacent windows never double-count it.
    """

    def __init__(self, window_start: float = 0.0, window_end: float = float("inf")) -> None:
        self.window_start = window_start
        self.window_end = window_end
        self.samples: List[float] = []

    def record(self, completed_at: float, latency: float) -> None:
        """Record ``latency`` if the op completed inside the window."""
        if self.window_start <= completed_at < self.window_end:
            self.samples.append(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        """Average latency in ns (0 when empty)."""
        if not self.samples:
            return 0.0
        xs = list(map(float, self.samples))
        return _pairwise_sum(lambda lo, hi: xs[lo:hi], 0, len(xs)) / len(xs)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile latency in ns (0 when empty)."""
        return _percentile(sorted(map(float, self.samples)), q)

    def summary(self) -> dict:
        """Mean / p5 / p50 / p95 / p99 / p99.9 in microseconds."""
        ordered = sorted(map(float, self.samples))
        return {
            "mean_us": self.mean() / 1e3,
            "p5_us": _percentile(ordered, 5) / 1e3,
            "p50_us": _percentile(ordered, 50) / 1e3,
            "p95_us": _percentile(ordered, 95) / 1e3,
            "p99_us": _percentile(ordered, 99) / 1e3,
            "p999_us": _percentile(ordered, 99.9) / 1e3,
        }


class RateMeter:
    """Counts operations completed inside ``[window_start, window_end)``.

    Half-open like :class:`LatencyRecorder`: a completion exactly at
    ``window_end`` is *not* counted, so back-to-back windows partition
    time without double counting.
    """

    def __init__(self, window_start: float = 0.0, window_end: float = float("inf")) -> None:
        self.window_start = window_start
        self.window_end = window_end
        self.count = 0
        self.total = 0

    def record(self, completed_at: float, n: int = 1) -> None:
        """Count ``n`` completions at simulated time ``completed_at``."""
        self.total += n
        if self.window_start <= completed_at < self.window_end:
            self.count += n

    def mops(self, window_end: Optional[float] = None) -> float:
        """Millions of operations per second over the window.

        ``window_end`` overrides the configured end when the experiment
        stopped early (e.g. the simulator was run to a shorter horizon).
        A rate over an unbounded window is meaningless (it used to
        silently come out as 0.0), so that raises instead.
        """
        end = self.window_end if window_end is None else window_end
        if end == float("inf"):
            raise ValueError(
                "RateMeter window is unbounded: construct with a finite "
                "window_end or pass one to mops()"
            )
        elapsed_ns = end - self.window_start
        if elapsed_ns <= 0:
            return 0.0
        return self.count / elapsed_ns * 1e3  # ops/ns -> Mops
