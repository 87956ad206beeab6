"""HERD configuration and key partitioning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.qos.config import QosConfig

#: request slot size; the largest key-value item is 1 KB (Section 5.1)
SLOT_BYTES = 1024


@dataclass(frozen=True)
class HerdConfig:
    """Deployment parameters (defaults follow Section 5.1).

    The request region is ``NS * NC * W`` KB; with the paper's NC = 200,
    NS = 16, W = 2 that is ~6 MB and fits in the server's L3 cache.
    """

    #: NS: server processes, each pinned to one core with its own
    #: MICA partition (EREW) and one UD QP for responses
    n_server_processes: int = 6
    #: W: per-client window — outstanding requests a client may have
    #: at *each* server process (also the client's global window)
    window: int = 4
    #: MICA index entries per server process (the paper uses 64 Mi;
    #: scaled down by default to keep simulations light)
    index_entries: int = 2 ** 16
    #: MICA circular log bytes per server process (paper: 4 GB)
    log_bytes: int = 1 << 22
    #: enable the prefetch pipeline (Figure 7's ablation switch)
    prefetch: bool = True
    #: transport carrying request WRITEs: "UC" (the paper's design) or
    #: "DC" (the Connect-IB Dynamically Connected extension the paper
    #: expects to lift the ~260-client scalability limit, Section 5.5)
    request_transport: str = "UC"
    #: application-level retry timeout in ns, or None to disable.
    #: UC/UD never retransmit (Section 2.2.3): HERD "sacrifices
    #: transport-level retransmission ... at the cost of rare
    #: application-level retries".  Set this well above the p99
    #: latency — a premature retry desynchronises response matching.
    retry_timeout_ns: Optional[float] = None
    #: re-sends allowed per operation before the client abandons it, or
    #: None for unlimited (an abandoned op quarantines its window slot
    #: until a late response arrives, so slot reuse stays safe)
    retry_budget: Optional[int] = None
    #: adapt the retry timeout to observed response times (Jacobson/
    #: Karels: srtt + 4 * rttvar, floored at min_retry_timeout_ns);
    #: retry_timeout_ns then only seeds the estimator
    adaptive_retry: bool = False
    #: floor for the adaptive retry timeout
    min_retry_timeout_ns: float = 5_000.0
    #: replicas per partition (1 = classic unreplicated HERD; k > 1
    #: adds k-1 backups on dedicated replica machines, see docs/HA.md)
    replication_factor: int = 1
    #: how many backups must apply a PUT before the primary acks the
    #: client: "all" live backups, or a "majority" of the replica group
    ack_policy: str = "all"
    #: lease duration in simulated microseconds; a primary that the
    #: monitor has not heard from for this long is declared dead
    lease_us: float = 10.0
    #: heartbeat period in simulated microseconds (must leave room for
    #: several heartbeats per lease, or one dropped UD SEND would
    #: trigger a spurious failover)
    heartbeat_us: float = 2.0
    #: elastic mode: how many of the ``n_server_processes`` partitions
    #: initially own key ranges (the rest are spares that join later
    #: via :mod:`repro.elastic`).  None keeps the classic static modulo
    #: mapping; an integer switches routing to an epoch-versioned shard
    #: map distributed over the CONFIG channel (see docs/ELASTICITY.md)
    n_active_partitions: Optional[int] = None
    #: overload protection (:class:`repro.qos.QosConfig`): admission
    #: control, tenant quotas, RETRY_AFTER nacks.  None (the default)
    #: disables the layer entirely — wire format, event schedule, and
    #: fingerprints stay byte-identical to the pre-QoS build
    qos: Optional["QosConfig"] = None

    def __post_init__(self) -> None:
        if self.n_server_processes < 1:
            raise ValueError("need at least one server process")
        if not 1 <= self.window <= 255:
            raise ValueError(
                "window must be within [1, 255] (the response's slot-id "
                "byte identifies the window slot); got %r" % (self.window,)
            )
        if self.index_entries < 1:
            raise ValueError("index_entries must be >= 1; got %r" % (self.index_entries,))
        if self.log_bytes < 1:
            raise ValueError("log_bytes must be >= 1; got %r" % (self.log_bytes,))
        if self.request_transport not in ("UC", "DC"):
            raise ValueError("request transport must be UC or DC")
        if self.retry_timeout_ns is not None and not self.retry_timeout_ns > 0:
            raise ValueError(
                "retry_timeout_ns must be > 0 (or None to disable retries); "
                "got %r" % (self.retry_timeout_ns,)
            )
        if self.retry_budget is not None and self.retry_budget < 1:
            raise ValueError(
                "retry_budget must be >= 1 (or None for unlimited); got %r"
                % (self.retry_budget,)
            )
        if not self.min_retry_timeout_ns > 0:
            raise ValueError(
                "min_retry_timeout_ns must be > 0; got %r"
                % (self.min_retry_timeout_ns,)
            )
        if not 1 <= self.replication_factor <= 8:
            raise ValueError(
                "replication_factor must be within [1, 8]; got %r"
                % (self.replication_factor,)
            )
        if self.ack_policy not in ("all", "majority"):
            raise ValueError(
                "ack_policy must be 'all' or 'majority'; got %r"
                % (self.ack_policy,)
            )
        if self.replication_factor > 1:
            if self.retry_timeout_ns is None:
                raise ValueError(
                    "replication needs application-level retries "
                    "(retry_timeout_ns): failover replays in-flight "
                    "requests through the retry path"
                )
            if self.request_transport != "UC":
                raise ValueError(
                    "replication currently supports the UC request "
                    "transport only; got %r" % (self.request_transport,)
                )
        if not self.lease_us > 0:
            raise ValueError("lease_us must be > 0; got %r" % (self.lease_us,))
        if not self.heartbeat_us > 0:
            raise ValueError(
                "heartbeat_us must be > 0; got %r" % (self.heartbeat_us,)
            )
        if self.lease_us <= 2 * self.heartbeat_us:
            raise ValueError(
                "lease_us must exceed two heartbeat periods, or a single "
                "dropped heartbeat triggers a spurious failover; got "
                "lease_us=%r heartbeat_us=%r" % (self.lease_us, self.heartbeat_us)
            )
        if self.n_active_partitions is not None:
            if not 1 <= self.n_active_partitions <= self.n_server_processes:
                raise ValueError(
                    "n_active_partitions must be within [1, "
                    "n_server_processes]; got %r with %d server processes"
                    % (self.n_active_partitions, self.n_server_processes)
                )
            if self.replication_factor < 2:
                raise ValueError(
                    "elastic mode (n_active_partitions) requires "
                    "replication_factor >= 2: live migration streams "
                    "records over the repro.ha replication mesh"
                )
        if self.qos is not None:
            from repro.qos.config import QosConfig

            if not isinstance(self.qos, QosConfig):
                raise ValueError(
                    "qos must be a repro.qos.QosConfig; got %r" % (self.qos,)
                )
            if self.retry_timeout_ns is None:
                raise ValueError(
                    "qos requires application-level retries "
                    "(retry_timeout_ns): RETRY_AFTER nacks re-send "
                    "through the retry path"
                )
            if self.replication_factor > 1:
                raise ValueError(
                    "qos currently supports unreplicated clusters only "
                    "(the HA response framing already claims the status "
                    "byte's routing)"
                )
            if self.request_transport != "UC":
                raise ValueError(
                    "qos currently supports the UC request transport "
                    "only; got %r" % (self.request_transport,)
                )

    def region_bytes(self, n_clients: int) -> int:
        """Size of the request region for ``n_clients`` client processes."""
        return self.n_server_processes * n_clients * self.window * SLOT_BYTES


def partition_of(keyhash: bytes, n_partitions: int) -> int:
    """Which server process owns ``keyhash`` (MICA-style EREW sharding).

    Keyhashes are already uniform, so plain modulo arithmetic over the
    first 8 bytes spreads keys evenly — this is HERD's analogue of
    MICA's Flow Director steering (Section 4.1).
    """
    if n_partitions < 1:
        raise ValueError(
            "n_partitions must be >= 1; got %r" % (n_partitions,)
        )
    return int.from_bytes(keyhash[:8], "little") % n_partitions


def route_key(keyhash: bytes, n_partitions: int, shard_map=None) -> int:
    """The single keyhash->partition routing helper.

    Every router — client issue path, cluster warm-load, chaos
    final-state audit — goes through here, so static and elastic
    deployments cannot disagree about ownership.  With ``shard_map``
    (a :class:`repro.elastic.ShardMap`) the map's range table decides;
    without one this is the classic static modulo mapping.
    """
    if shard_map is not None:
        return shard_map.owner_of(keyhash)
    return partition_of(keyhash, n_partitions)
