"""Open-loop arrival processes for overload experiments (repro.qos).

The paper's clients are *closed-loop*: each keeps a fixed window of
outstanding requests, so offered load can never exceed what the server
sustains — overload is structurally impossible.  Real front-ends are
open-loop: requests arrive on their own schedule whether or not earlier
ones finished, which is exactly the regime where admission control
earns its keep.

An :class:`ArrivalProcess` answers one question — "how long until this
client's next request?" — via :meth:`~ArrivalProcess.next_gap_ns`.
Every process draws from its own :func:`repro.faults.rng.child_rng`
stream, so attaching arrivals never perturbs workload key/value draws
and chaos fingerprints stay byte-identical when QoS is off.

* :class:`PoissonArrivals` — memoryless arrivals at a steady rate.
* :class:`FlashCrowdArrivals` — a rate step (e.g. 10x) inside a window.
* :class:`DiurnalArrivals` — sinusoidal rate modulation (slow ramps).
* :class:`StalledArrivals` — a client that goes silent for a window and
  then releases the backlog in a thundering herd (head-of-line study).
* :class:`HotKeyShiftStream` — not an arrival process but a stream
  wrapper: after a trigger, a fraction of ops are redirected onto a
  small hot set, shifting the key popularity mid-run.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Sequence

from repro.workloads.ycsb import Operation, OpType, WorkloadStream, keyhash, value_for

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "FlashCrowdArrivals",
    "DiurnalArrivals",
    "StalledArrivals",
    "HotKeyShiftStream",
]


class ArrivalProcess:
    """Base class: a deterministic schedule of request arrivals."""

    def next_gap_ns(self, now: float) -> float:
        """Nanoseconds from ``now`` until this client's next request."""
        raise NotImplementedError

    def rate_at(self, now: float) -> float:
        """Instantaneous offered rate in ops/us (for reporting)."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_ops_per_us``.

    Subclasses override :meth:`rate_at` for time-varying rates; gaps are
    drawn against the rate *at the draw instant*, the standard thinning
    approximation for slowly-varying intensity.
    """

    def __init__(self, rate_ops_per_us: float, rng: random.Random) -> None:
        if rate_ops_per_us <= 0.0:
            raise ValueError("arrival rate must be positive")
        self.rate_ops_per_us = rate_ops_per_us
        self._rng = rng

    def rate_at(self, now: float) -> float:
        return self.rate_ops_per_us

    def next_gap_ns(self, now: float) -> float:
        mean_gap_ns = 1000.0 / self.rate_at(now)
        return self._rng.expovariate(1.0) * mean_gap_ns


class FlashCrowdArrivals(PoissonArrivals):
    """A Poisson base rate multiplied by ``burst_factor`` inside
    ``[burst_start_ns, burst_end_ns)`` — the 10x flash crowd."""

    def __init__(
        self,
        rate_ops_per_us: float,
        rng: random.Random,
        burst_factor: float = 10.0,
        burst_start_ns: float = 0.0,
        burst_end_ns: float = float("inf"),
    ) -> None:
        super().__init__(rate_ops_per_us, rng)
        if burst_factor <= 0.0:
            raise ValueError("burst_factor must be positive")
        if burst_end_ns < burst_start_ns:
            raise ValueError("burst window ends before it starts")
        self.burst_factor = burst_factor
        self.burst_start_ns = burst_start_ns
        self.burst_end_ns = burst_end_ns

    def rate_at(self, now: float) -> float:
        if self.burst_start_ns <= now < self.burst_end_ns:
            return self.rate_ops_per_us * self.burst_factor
        return self.rate_ops_per_us


class DiurnalArrivals(PoissonArrivals):
    """Sinusoidal rate modulation: rate * (1 + amplitude*sin(2pi t/T)).

    ``amplitude`` < 1 keeps the rate positive; a full period is one
    synthetic "day", so a ramp to (1+amplitude)x peaks at T/4.
    """

    def __init__(
        self,
        rate_ops_per_us: float,
        rng: random.Random,
        amplitude: float = 0.5,
        period_ns: float = 1_000_000.0,
    ) -> None:
        super().__init__(rate_ops_per_us, rng)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be within [0, 1)")
        if period_ns <= 0.0:
            raise ValueError("period_ns must be positive")
        self.amplitude = amplitude
        self.period_ns = period_ns

    def rate_at(self, now: float) -> float:
        phase = 2.0 * math.pi * (now / self.period_ns)
        return self.rate_ops_per_us * (1.0 + self.amplitude * math.sin(phase))


class StalledArrivals(ArrivalProcess):
    """A deliberately slow client: arrivals that would land inside
    ``[stall_start_ns, stall_end_ns)`` pile up and release as a back-
    to-back burst at ``flush_gap_ns`` spacing when the stall lifts —
    the head-of-line thundering herd."""

    def __init__(
        self,
        inner: ArrivalProcess,
        stall_start_ns: float,
        stall_end_ns: float,
        flush_gap_ns: float = 50.0,
    ) -> None:
        if stall_end_ns < stall_start_ns:
            raise ValueError("stall window ends before it starts")
        if flush_gap_ns <= 0.0:
            raise ValueError("flush_gap_ns must be positive")
        self.inner = inner
        self.stall_start_ns = stall_start_ns
        self.stall_end_ns = stall_end_ns
        self.flush_gap_ns = flush_gap_ns
        self._backlog = 0

    def rate_at(self, now: float) -> float:
        if self.stall_start_ns <= now < self.stall_end_ns:
            return 0.0
        return self.inner.rate_at(now)

    def next_gap_ns(self, now: float) -> float:
        if self._backlog > 0:
            self._backlog -= 1
            return self.flush_gap_ns
        gap = self.inner.next_gap_ns(now)
        at = now + gap
        if self.stall_start_ns <= at < self.stall_end_ns:
            # Arrivals keep landing while the client is stalled; count
            # them, then fire the first at the instant the stall lifts.
            while at < self.stall_end_ns:
                self._backlog += 1
                at += self.inner.next_gap_ns(at)
            self._backlog -= 1
            return self.stall_end_ns - now
        return gap


class HotKeyShiftStream:
    """Wrap a :class:`WorkloadStream`, redirecting a fraction of ops
    onto a small hot set once the shift triggers.

    The trigger is either a simulated-time threshold (``shift_ns`` with
    a ``clock`` callable) or an op-count threshold (``shift_after``).
    Redirection draws from its *own* RNG so the inner stream's trace is
    untouched; redirected PUTs carry :func:`value_for` bodies so end-
    to-end store checks still hold.
    """

    def __init__(
        self,
        inner: WorkloadStream,
        hot_items: Sequence[int],
        hot_fraction: float,
        rng: random.Random,
        shift_after: int = 0,
        shift_ns: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not hot_items:
            raise ValueError("hot_items must be non-empty")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be within [0, 1]")
        if (shift_ns is None) != (clock is None):
            raise ValueError("shift_ns and clock come together")
        self.inner = inner
        self.workload = inner.workload
        self.hot_items: List[int] = list(hot_items)
        self.hot_fraction = hot_fraction
        self.shift_after = shift_after
        self.shift_ns = shift_ns
        self._clock = clock
        self._rng = rng
        self.redirected = 0

    def _shifted(self) -> bool:
        if self.shift_ns is not None:
            return self._clock() >= self.shift_ns  # type: ignore[misc]
        return self.inner.generated >= self.shift_after

    def next_op(self) -> Operation:
        op = self.inner.next_op()
        if not self._shifted() or self._rng.random() >= self.hot_fraction:
            return op
        self.redirected += 1
        item = self.hot_items[self._rng.randrange(len(self.hot_items))]
        value = None
        if op.op is OpType.PUT:
            value = value_for(item, self.workload.value_size)
        return Operation(op=op.op, key=keyhash(item), value=value, item=item)
