"""Admission control: token buckets, CoDel sojourn control, fair shares.

One :class:`QosRuntime` per cluster holds the per-tenant token buckets
and the shed/admit accounting; each server partition gets its own
:class:`PartitionAdmission` (CoDel state and the fair-admission window
are per-partition, because sojourn is a per-queue quantity).

Everything here is deterministic — no RNG, state advances only on
request arrival timestamps — so chaos fingerprints that include the
shed counters reproduce bit-for-bit.

The CoDel controller follows Nichols & Jacobson's algorithm shape: a
request is sheddable only once the queueing delay (*sojourn*: arrival
stamp to service start) has stayed above ``codel_target_ns`` for a full
``codel_interval_ns``; while in the dropping state, sheds are spaced
``interval / sqrt(drop_count)`` apart, so pressure ramps until sojourn
recovers, then resets.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.qos.config import QosConfig

__all__ = ["TokenBucket", "PartitionAdmission", "QosRuntime"]

#: token-bucket depth of a rate-capped tenant, in ops
TENANT_BURST = 16.0
#: backlog above which weighted fair admission engages
FAIR_QUEUE_THRESHOLD = 4
#: admitted-count slack before a tenant is shed for unfairness
FAIR_SLACK = 4.0


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/ns, depth ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "last_ns")

    def __init__(self, rate_per_ns: float, burst: float) -> None:
        self.rate = rate_per_ns
        self.burst = burst
        self.tokens = burst
        self.last_ns = 0.0

    def admit(self, now: float, cost: float = 1.0) -> bool:
        if now > self.last_ns:
            self.tokens = min(self.burst, self.tokens + (now - self.last_ns) * self.rate)
            self.last_ns = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class QosRuntime:
    """Cluster-level admission state: tenant buckets + shed accounting."""

    def __init__(self, config: QosConfig, n_partitions: int) -> None:
        self.config = config
        self.buckets: List[Optional[TokenBucket]] = []
        for tenant in range(config.n_tenants):
            rate = None
            if config.tenant_rates is not None:
                rate = config.tenant_rates[tenant]
            # rates are configured in ops/us; buckets run in ops/ns
            self.buckets.append(
                None if rate is None else TokenBucket(rate / 1000.0, TENANT_BURST)
            )
        #: sheds by reason, cluster-wide
        self.shed: Dict[str, int] = {}
        #: per-tenant [admitted, shed]
        self.tenants: List[List[int]] = [[0, 0] for _ in range(config.n_tenants)]
        self._partitions = [PartitionAdmission(self) for _ in range(n_partitions)]

    def partition(self, index: int) -> "PartitionAdmission":
        return self._partitions[index]

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    def counter_lines(self) -> List[str]:
        """Deterministic accounting lines for chaos fingerprints."""
        lines = ["qos.shed.%s %d" % (k, v) for k, v in sorted(self.shed.items())]
        for tenant, (admitted, shed) in enumerate(self.tenants):
            lines.append("qos.tenant%d admitted=%d shed=%d" % (tenant, admitted, shed))
        return lines

    def _record(self, tenant: int, reason: Optional[str]) -> Optional[str]:
        if reason is None:
            self.tenants[tenant][0] += 1
        else:
            self.tenants[tenant][1] += 1
            self.shed[reason] = self.shed.get(reason, 0) + 1
        return reason


class PartitionAdmission:
    """Per-partition verdicts: CoDel state + the fair-admission window."""

    def __init__(self, runtime: QosRuntime) -> None:
        self.runtime = runtime
        self.config = runtime.config
        # CoDel state (Nichols & Jacobson)
        self._first_above_ns = 0.0
        self._dropping = False
        self._drop_count = 0
        self._drop_next_ns = 0.0
        # fair-admission window
        self._fair_start_ns = 0.0
        self._fair_counts = [0] * self.config.n_tenants
        self._fair_total = 0

    def on_request(
        self, client: int, now: float, sojourn_ns: float, backlog: int
    ) -> Optional[str]:
        """Admission verdict for one request: ``None`` admits, a string
        names the shed reason (``throttled`` / ``overflow`` /
        ``slowdown`` / ``fairness``)."""
        cfg = self.config
        tenant = cfg.tenant_of(client)
        bucket = self.runtime.buckets[tenant]
        if bucket is not None and not bucket.admit(now):
            return self.runtime._record(tenant, "throttled")
        if cfg.queue_limit is not None and backlog > cfg.queue_limit:
            return self.runtime._record(tenant, "overflow")
        if cfg.codel_target_ns is not None and self._codel(now, sojourn_ns):
            return self.runtime._record(tenant, "slowdown")
        if self._unfair(tenant, now, backlog):
            return self.runtime._record(tenant, "fairness")
        self._fair_counts[tenant] += 1
        self._fair_total += 1
        return self.runtime._record(tenant, None)

    # -- CoDel ---------------------------------------------------------

    def _codel(self, now: float, sojourn_ns: float) -> bool:
        cfg = self.config
        if sojourn_ns < cfg.codel_target_ns:
            # delay recovered: leave the dropping state entirely
            self._first_above_ns = 0.0
            self._dropping = False
            return False
        if self._dropping:
            if now >= self._drop_next_ns:
                self._drop_count += 1
                self._drop_next_ns = now + cfg.codel_interval_ns / math.sqrt(
                    self._drop_count
                )
                return True
            return False
        if self._first_above_ns == 0.0:
            # first sighting above target: arm the interval timer
            self._first_above_ns = now + cfg.codel_interval_ns
            return False
        if now >= self._first_above_ns:
            # above target for a full interval: start shedding
            self._dropping = True
            self._drop_count = 1
            self._drop_next_ns = now + cfg.codel_interval_ns
            return True
        return False

    # -- weighted fair admission --------------------------------------

    def _unfair(self, tenant: int, now: float, backlog: int) -> bool:
        cfg = self.config
        if cfg.n_tenants == 1:
            return False
        if now - self._fair_start_ns >= cfg.codel_interval_ns:
            self._fair_start_ns = now
            self._fair_counts = [0] * cfg.n_tenants
            self._fair_total = 0
        if backlog <= FAIR_QUEUE_THRESHOLD:
            # no contention: fairness does not constrain admission
            return False
        weights = cfg.tenant_weights or (1.0,) * cfg.n_tenants
        share = weights[tenant] / sum(weights)
        return self._fair_counts[tenant] + 1 > share * (self._fair_total + 1) + FAIR_SLACK
