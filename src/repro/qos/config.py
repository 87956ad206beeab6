"""QoS configuration: the knobs of the overload-protection layer.

A :class:`QosConfig` hangs off :class:`repro.herd.config.HerdConfig`
(``qos=None`` by default, so every existing run is byte-identical).
Three independent defenses compose, checked in this order per request:

1. **per-tenant token buckets** (``tenant_rates``, depth
   :data:`repro.qos.admission.TENANT_BURST`) — a hard quota on each
   tenant's admitted rate;
2. **bounded queues** (``queue_limit``) — backlog above the bound is
   shed immediately (tail-drop on the request region's arrival queue);
3. **CoDel-style sojourn control** (``codel_target_ns`` /
   ``codel_interval_ns``) — when queueing delay stays above the SLO
   target for a full interval, shed at an increasing rate until the
   sojourn recovers;
4. **weighted fair admission** (``tenant_weights``) — while a backlog
   exists, no tenant may exceed its weighted share of admitted requests
   by more than :data:`repro.qos.admission.FAIR_SLACK`.

Every shed request is nacked with ``RESP_RETRY_AFTER``, which clients
honor with budgeted exponential backoff (``retry_after_ns``, then
:data:`repro.herd.client.RETRY_AFTER_BACKOFF` per consecutive nack, up
to :data:`repro.herd.client.RETRY_AFTER_BUDGET` nacks) instead of
hammering a saturated partition.
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

    #: CoDel sojourn target (SLO on queueing delay); None disables
    codel_target_ns: Optional[float] = 4_000.0
    #: CoDel control interval (also the fair-admission window)
    codel_interval_ns: float = 20_000.0

    #: tenants are client id modulo n_tenants
    n_tenants: int = 1
    #: per-tenant admitted-rate caps in ops/us; None entry = unlimited
    tenant_rates: Optional[Tuple[Optional[float], ...]] = None
    #: weighted fair shares while a backlog exists; None = unweighted
    tenant_weights: Optional[Tuple[float, ...]] = None

    #: base client backoff after a RESP_RETRY_AFTER nack
    retry_after_ns: float = 20_000.0
    #: bound on server-side UC QPs per partition (clients share them
    #: round-robin), attacking the Fig-12 QP-cache cliff; None = one
    #: QP per client as before
    qp_pool: Optional[int] = None

    def __post_init__(self) -> None:
        # each bound is ``not (x >= lo)``-style, so NaN fails it too
        if self.queue_limit is not None and not (self.queue_limit >= 1):
            raise ValueError("queue_limit must be >= 1 (or None)")
        if self.codel_target_ns is not None and not (self.codel_target_ns > 0):
            raise ValueError("codel_target_ns must be positive (or None)")
        if not (self.codel_interval_ns > 0):
            raise ValueError("codel_interval_ns must be positive")
        if not (self.n_tenants >= 1):
            raise ValueError("n_tenants must be >= 1")
        if self.tenant_rates is not None:
            object.__setattr__(self, "tenant_rates", tuple(self.tenant_rates))
            if len(self.tenant_rates) != self.n_tenants:
                raise ValueError("tenant_rates must list one rate per tenant")
            for rate in self.tenant_rates:
                if rate is not None and not (rate > 0):
                    raise ValueError("tenant rates must be positive (or None)")
        if self.tenant_weights is not None:
            object.__setattr__(self, "tenant_weights", tuple(self.tenant_weights))
            if len(self.tenant_weights) != self.n_tenants:
                raise ValueError("tenant_weights must list one weight per tenant")
            if not all(w > 0 for w in self.tenant_weights):
                raise ValueError("tenant weights must be positive")
        if not (self.retry_after_ns > 0):
            raise ValueError("retry_after_ns must be positive")
        if self.qp_pool is not None and not (self.qp_pool >= 1):
            raise ValueError("qp_pool must be >= 1 (or None)")

    def tenant_of(self, client: int) -> int:
        """Static tenant assignment: client id modulo ``n_tenants``."""
        return client % self.n_tenants
