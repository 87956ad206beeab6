"""QoS configuration: the knobs of the overload-protection layer.

A :class:`QosConfig` hangs off :class:`repro.herd.config.HerdConfig`
(``qos=None`` by default, so every existing run is byte-identical).
Three independent defenses compose, checked in this order per request:

1. **per-tenant token buckets** (``tenant_rates`` / ``tenant_burst``) —
   a hard quota on each tenant's admitted rate;
2. **bounded queues** (``queue_limit``) — backlog above the bound is
   shed immediately (tail-drop on the request region's arrival queue);
3. **CoDel-style sojourn control** (``codel_target_ns`` /
   ``codel_interval_ns``) — when queueing delay stays above the SLO
   target for a full interval, shed at an increasing rate until the
   sojourn recovers;
4. **weighted fair admission** (``tenant_weights`` / ``fair_slack``) —
   while a backlog exists, no tenant may exceed its weighted share of
   admitted requests by more than the slack.

Shed requests are either silently dropped (``drop_policy="drop"``; the
client's retry machinery treats it as loss) or nacked with
``RESP_RETRY_AFTER`` (``drop_policy="nack"``), which clients honor with
budgeted exponential backoff (``retry_after_*``) instead of hammering a
saturated partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class QosConfig:
    """Overload-protection knobs (all deterministic; no RNG inside)."""

    #: max backlog (arrival queue + pipeline) per partition before
    #: tail-shedding; None = unbounded
    queue_limit: Optional[int] = 24
    #: "nack" sends RESP_RETRY_AFTER; "drop" sheds silently
    drop_policy: str = "nack"

    #: CoDel sojourn target (SLO on queueing delay); None disables
    codel_target_ns: Optional[float] = 4_000.0
    #: CoDel control interval (also the fair-admission window)
    codel_interval_ns: float = 20_000.0

    #: tenants are client id modulo n_tenants
    n_tenants: int = 1
    #: per-tenant admitted-rate caps in ops/us; None entry = unlimited
    tenant_rates: Optional[Tuple[Optional[float], ...]] = None
    #: token-bucket depth, in ops
    tenant_burst: float = 16.0
    #: weighted fair shares while a backlog exists; None = unweighted
    tenant_weights: Optional[Tuple[float, ...]] = None
    #: backlog above which fair admission engages
    fair_queue_threshold: int = 4
    #: admitted-count slack before a tenant is shed for unfairness
    fair_slack: float = 4.0

    #: base client backoff after a RESP_RETRY_AFTER nack
    retry_after_ns: float = 20_000.0
    #: backoff multiplier per consecutive nack on the same op
    retry_after_backoff: float = 2.0
    #: consecutive nacks before the client gives the op up; None = never
    retry_after_budget: Optional[int] = 8
    #: bound on server-side UC QPs per partition (clients share them
    #: round-robin), attacking the Fig-12 QP-cache cliff; None = one
    #: QP per client as before
    qp_pool: Optional[int] = None

    def __post_init__(self) -> None:
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None)")
        if self.drop_policy not in ("nack", "drop"):
            raise ValueError("drop_policy must be 'nack' or 'drop'")
        if self.codel_target_ns is not None and self.codel_target_ns <= 0:
            raise ValueError("codel_target_ns must be positive (or None)")
        if self.codel_interval_ns <= 0:
            raise ValueError("codel_interval_ns must be positive")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if self.tenant_rates is not None:
            object.__setattr__(self, "tenant_rates", tuple(self.tenant_rates))
            if len(self.tenant_rates) != self.n_tenants:
                raise ValueError("tenant_rates must list one rate per tenant")
            for rate in self.tenant_rates:
                if rate is not None and rate <= 0:
                    raise ValueError("tenant rates must be positive (or None)")
        if self.tenant_burst <= 0:
            raise ValueError("tenant_burst must be positive")
        if self.tenant_weights is not None:
            object.__setattr__(self, "tenant_weights", tuple(self.tenant_weights))
            if len(self.tenant_weights) != self.n_tenants:
                raise ValueError("tenant_weights must list one weight per tenant")
            if any(w <= 0 for w in self.tenant_weights):
                raise ValueError("tenant weights must be positive")
        if self.fair_queue_threshold < 0:
            raise ValueError("fair_queue_threshold must be >= 0")
        if self.fair_slack < 0:
            raise ValueError("fair_slack must be >= 0")
        if self.retry_after_ns <= 0:
            raise ValueError("retry_after_ns must be positive")
        if self.retry_after_backoff < 1.0:
            raise ValueError("retry_after_backoff must be >= 1")
        if self.retry_after_budget is not None and self.retry_after_budget < 1:
            raise ValueError("retry_after_budget must be >= 1 (or None)")
        if self.qp_pool is not None and self.qp_pool < 1:
            raise ValueError("qp_pool must be >= 1 (or None)")

    def tenant_of(self, client: int) -> int:
        """Static tenant assignment: client id modulo ``n_tenants``."""
        return client % self.n_tenants
