"""The chaos harness: a cluster under a randomized fault plan.

A chaos run builds a small cluster, preloads every key, installs a
seeded :class:`~repro.faults.plan.FaultPlan` (randomized by default),
runs it through a *fault horizon*, then turns the faults off and lets
the clients drain their windows.  On HERD it checks the paper's
safety argument end to end (Section 2.2.3: unreliable transports are
fine because loss is rare and the application retries):

* **liveness** — every client window drains: nothing stays outstanding
  or parked once the faults stop;
* **no lost acks** — per client, ``completed == issued - abandoned``,
  and window-slot accounting closes (free + quarantined = W per
  partition);
* **no wrong answers** — every successful GET returns exactly the
  deterministic ``value_for(item)`` bytes, and no preloaded key is
  missing (GETs never miss);
* **no duplicate side effects** — after all retries, duplicates, and a
  crash/recovery re-execution, every store entry still holds exactly
  ``value_for(item)`` (HERD PUTs are idempotent; a corrupted or
  double-applied PUT would leave different bytes);
* **monotonic clock** — completion timestamps never run backwards;
* **reproducibility** — the report carries a fingerprint hashed over
  every completion record and counter; two runs with the same seed
  must produce identical fingerprints.

The ``txn-*`` entries run :mod:`repro.txn` through the same pipeline,
audited for strict serializability and torn writes.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import struct
from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Loaded with the harness so that a replicated run imports nothing:
# ``Testbed.install_faults`` takes the injector, and ``HerdCluster``
# wires ``repro.ha``, from ``sys.modules``.
import repro.faults.injector  # noqa: F401
from repro.faults.plan import FaultPlan
from repro.faults.rng import child_rng
from repro.ha import HaOp, check_histories, lost_acked_writes, split_brain
from repro.herd.cluster import HerdCluster
from repro.herd.config import HerdConfig, partition_of, route_key
from repro.obs.report import RunReport
from repro.verbs import Testbed
from repro.workloads import FlashCrowdArrivals, PoissonArrivals, StalledArrivals
from repro.workloads.ycsb import OpType, Workload, keyhash, value_for


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile — deterministic, no interpolation, so
    fingerprint-adjacent report fields reproduce bit-for-bit."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]

#: fraction of the horizon after which completions count as "tail"
#: throughput (the resharded steady state, for elasticity tracking)
TAIL_FRAC = 0.75


class _TaggedStream:
    """Wraps a workload stream, making every PUT value unique.

    Linearizability checking needs to tell writes apart: two clients
    PUTting the deterministic ``value_for`` bytes would be
    indistinguishable.  The first 6 bytes of each PUT value become
    ``(counter, client_id)``; the inner stream's RNG is untouched, so
    tagging never perturbs the op sequence.
    """

    def __init__(self, inner, client_id: int) -> None:
        self.inner = inner
        self.client_id = client_id
        self.counter = 0

    def next_op(self):
        op = self.inner.next_op()
        if op.op is not OpType.PUT:
            return op
        tag = struct.pack("<IH", self.counter, self.client_id)
        self.counter += 1
        return replace(op, value=tag + op.value[len(tag):])


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    seed: int
    plan: str
    sim_ns: float
    issued: int
    completed: int
    abandoned: int
    retries: int
    # HERD client and server counters (0 where a testbed has none)
    duplicate_responses: int = 0
    late_responses: int = 0
    get_misses: int = 0
    server_crashes: int = 0
    server_recoveries: int = 0
    recovered_slots: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    fingerprint: str = ""
    # -- replicated (HA) runs only; defaults keep classic runs unchanged
    scenario: Optional[str] = None
    replication_factor: int = 1
    ack_policy: str = ""
    ops_acked: int = 0
    ops_lost: int = 0
    checker: str = ""  # "linearizable" | "violated" ("" = unreplicated)
    availability: float = 1.0
    failover_latency_ns: float = 0.0
    promotions: int = 0
    stale_nacks: int = 0
    replays: int = 0
    #: completions at/after TAIL_FRAC * horizon (steady-state throughput)
    tail_completed: int = 0
    # -- elastic (shard map) runs only
    map_version: int = 0
    migrations_done: int = 0
    migrations_aborted: int = 0
    records_migrated: int = 0
    reroutes: int = 0
    not_owner_nacks: int = 0
    #: p99.9 response latency in microseconds over the whole run (every
    #: chaos run records it; 0.0 when no op completed)
    p999_us: float = 0.0
    # -- overload (repro.qos) runs only
    qos_enabled: bool = False
    offered: int = 0
    shed: int = 0
    retry_after_nacks: int = 0
    rejected: int = 0
    overflow_dropped: int = 0
    #: in-SLO completion rate (Mops) before the burst window
    pre_burst_mops: float = 0.0
    #: in-SLO completion rate (Mops) inside the burst window
    burst_mops: float = 0.0
    #: burst_mops / pre_burst_mops — the goodput floor contract
    goodput_ratio: float = 1.0
    #: per-tenant p99 response latency (us), tenant id -> p99
    tenant_p99_us: Dict[int, float] = field(default_factory=dict)
    #: RunReport when the run was observed (obs capture active); carries
    #: the outcome row so metrics exports include the chaos verdict
    obs: Optional[object] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def outcome_row(self) -> Dict[str, object]:
        """One row of the per-scenario outcome table (bench --chaos)."""
        return {
            "scenario": self.scenario or "randomized",
            "seed": self.seed,
            "ops_acked": self.ops_acked if self.scenario else self.completed,
            "ops_lost": self.ops_lost,
            "checker": self.checker or "n/a",
            "verdict": "OK" if self.ok else "FAILED",
            "availability": self.availability,
            "failover_latency_ns": self.failover_latency_ns,
            "p999_us": self.p999_us,
        }

    def summary(self) -> str:
        faults = ", ".join("%s=%d" % kv for kv in sorted(self.fault_counts.items()))
        values = dict(
            vars(self),
            verdict="OK" if self.ok else "FAILED",
            faults=faults or "none fired",
            digest=self.fingerprint[:16],
            qos="on" if self.qos_enabled else "off",
            failover_us=self.failover_latency_ns / 1000.0,
            tenant_tails="".join(
                ", tenant%d p99 %.1f us" % tail
                for tail in sorted(self.tenant_p99_us.items())
            ),
        )
        lines = ["chaos seed=%(seed)d: %(verdict)s"]
        lines += SCENARIOS[self.scenario].summary
        if self.map_version or self.migrations_done or self.migrations_aborted:
            lines.append(
                "  shard map v%(map_version)d: %(migrations_done)d migrations done, "
                "%(migrations_aborted)d aborted, %(records_migrated)d records moved, "
                "%(reroutes)d reroutes"
            )
        lines += [
            "  %(issued)d issued, %(completed)d completed, %(abandoned)d abandoned "
            "in %(sim_ns).0f ns",
            "  %(retries)d retries, %(duplicate_responses)d duplicate responses, "
            "%(late_responses)d late responses",
            "  %(server_crashes)d crashes, %(server_recoveries)d recoveries "
            "(%(recovered_slots)d slots re-scanned live)",
            "  faults: %(faults)s",
            "  fingerprint %(digest)s",
        ]
        lines = [line % values for line in lines]
        lines += ["  VIOLATION: %s" % violation for violation in self.violations]
        return "\n".join(lines)


class _Run(SimpleNamespace):
    """One chaos run, threaded through the pipeline stages: ``run_chaos``'s
    arguments under their own names (``config`` and ``plan`` replaced by
    the resolved ones), then what the stages build, record and find."""

    def __init__(self, **arguments) -> None:
        super().__init__(entry=None, cluster=None, injector=None, **arguments)
        self.records: List[str] = []  # one line per completion
        self.violations: List[str] = []
        self.last_now = 0.0
        self.tail_completed = 0
        self.responses: List[tuple] = []  # (client_id, latency, success, now)
        self.histories: Dict[bytes, list] = {}  # key -> its HaOps, invocation order
        self.divergences = self.ops_lost = 0  # what the oracles found
        self.checker = ""

    def span(self, window: str) -> Tuple[float, float]:
        """One of the entry's goodput windows, in ns."""
        lo, hi = self.entry.windows[window]
        return lo * self.horizon_ns, hi * self.horizon_ns


def _totals(objects, *names: str) -> Dict[str, int]:
    return {name: sum(getattr(o, name) for o in objects) for name in names}


def _classic_config(run: _Run) -> HerdConfig:
    return HerdConfig(
        n_server_processes=run.n_server_processes or 4,
        window=4,
        retry_timeout_ns=30_000.0,
        adaptive_retry=True,
        min_retry_timeout_ns=15_000.0,
    )


def _send_send_config(run: _Run) -> HerdConfig:
    """The classic config with every request a SEND over UD."""
    return replace(_classic_config(run), request_transport="UD")


def _replicated_config(run: _Run, servers: int = 4, spares: int = 0) -> HerdConfig:
    """``replication_factor`` replicas per partition on short RTOs;
    ``spares`` partitions own no keys until they join (a shard map)."""
    n = run.n_server_processes or servers
    return HerdConfig(
        n_server_processes=n,
        n_active_partitions=n - spares if spares else None,
        window=4,
        retry_timeout_ns=10_000.0,
        adaptive_retry=True,
        min_retry_timeout_ns=5_000.0,
        replication_factor=run.replication_factor,
        ack_policy=run.ack_policy,
        lease_us=run.lease_us,
        heartbeat_us=run.heartbeat_us,
    )


def _elastic_config(run: _Run) -> HerdConfig:
    return _replicated_config(run, servers=3, spares=1)  # one spare to join live


def _overload_config(run: _Run) -> HerdConfig:
    from repro.qos import QosConfig

    two = run.entry.tenants == 2
    if run.shedding:
        qos = QosConfig(
            queue_limit=32,
            codel_target_ns=4_000.0,
            codel_interval_ns=20_000.0,
            n_tenants=run.entry.tenants,
            tenant_rates=(None, 2.0) if two else None,
            tenant_weights=(4.0, 1.0) if two else None,
            retry_after_ns=16_000.0,
            qp_pool=4,
        )
    else:
        # every limit off: identical wire framing and QP wiring,
        # but nothing is ever shed — the unprotected control arm
        qos = QosConfig(queue_limit=None, codel_target_ns=None, qp_pool=4)
    # deep windows + a fixed RTO: the classic recipe that lets a
    # flash crowd push sojourn far past the SLO when unprotected
    return HerdConfig(
        n_server_processes=run.n_server_processes or 2,
        window=32,
        retry_timeout_ns=30_000.0,
        adaptive_retry=False,
        qos=qos,
    )


def _txn_config(run: _Run, dataplane: str = "rpc"):
    """``n_server_processes`` partitions over ``n_items`` keys; a
    transaction is read-only with probability ``get_fraction``."""
    from repro.txn import TxnConfig

    return TxnConfig(
        dataplane=dataplane,
        n_partitions=run.n_server_processes or 2,
        n_keys=run.n_items,
        value_bytes=run.value_size,
        read_only_fraction=run.get_fraction,
    )


def _onesided_config(run: _Run):
    return _txn_config(run, dataplane="onesided")


def _closed_loop(run: _Run, n_clients: Optional[int] = None, arrivals=None) -> None:
    workload = Workload(
        get_fraction=run.get_fraction, value_size=run.value_size, n_keys=run.n_items
    )
    run.cluster.add_clients(n_clients or run.n_clients, workload, arrivals)


def _tagged_clients(run: _Run) -> None:
    """Closed-loop clients whose PUTs are unique, recording the full
    invoke/response history per key for the linearizability checker.  An
    op is its (client, partition, window slot, slot epoch) — exactly the
    token the wire protocol matches responses by."""
    if run.value_size < 8:
        raise ValueError("HA chaos tags PUT values; value_size must be >= 8")
    if run.config.replication_factor < 2:
        raise ValueError("HA scenarios need a config with replication_factor > 1")
    open_ops: Dict[tuple, HaOp] = {}
    histories = run.histories

    def record(client_id, kind, op, server, slot, epoch, success, value, now):
        token = (client_id, server, slot, epoch)
        if kind == "invoke":
            ha_op = HaOp(
                client=client_id,
                kind="w" if op.op is OpType.PUT else "r",
                value=op.value if op.op is OpType.PUT else None,
                invoke=now,
            )
            open_ops[token] = ha_op
            histories.setdefault(op.key, []).append(ha_op)
        elif kind == "response":
            ha_op = open_ops.pop(token, None)
            if ha_op is not None:
                ha_op.respond = now
                ha_op.ok = bool(success)
                if ha_op.kind == "r":
                    ha_op.value = value
        # "stale" nacks leave the op open: it was never executed;
        # so do "reroute" nacks (NOT_OWNER at the old shard owner)

    _closed_loop(run)
    for client in run.cluster.clients:
        client.stream = _TaggedStream(client.stream, client.client_id)
        client.ha_event_hook = partial(record, client.client_id)


def _crowd(run: _Run, rng) -> FlashCrowdArrivals:
    """0.45 ops/us * ``intensity`` is every client's steady open-loop
    rate: the fleet sits well under capacity until the overload lands."""
    start, end = run.span("burst")
    return FlashCrowdArrivals(0.45 * run.intensity, rng, run.burst, start, end)


def _flash_crowd_clients(run: _Run) -> None:
    _closed_loop(run, arrivals=lambda cid, rng: _crowd(run, rng))


def _aggressor_clients(run: _Run) -> None:
    # Six aggressors are needed to push the fleet past capacity:
    # an open-loop client's send path self-clocks at ~3 ops/us, so
    # four bursting clients alone cannot drown the victims.
    n_clients = 12 if run.n_clients == 8 else run.n_clients

    def arrivals(cid, rng):  # odd clients: the aggressor tenant
        if cid % 2:
            return _crowd(run, rng)
        return PoissonArrivals(0.45 * run.intensity, rng)

    _closed_loop(run, n_clients, arrivals)


def _slow_client_clients(run: _Run) -> None:
    def arrivals(cid, rng):  # client 0: the one stalled source
        if cid:
            return PoissonArrivals(0.45 * run.intensity, rng)
        return StalledArrivals(
            PoissonArrivals(0.45 * run.intensity * 0.5 * run.burst, rng),
            stall_start_ns=0.3 * run.horizon_ns,
            stall_end_ns=0.6 * run.horizon_ns,
            flush_gap_ns=50.0,
        )

    _closed_loop(run, arrivals=arrivals)


def _noise(run: _Run, scale: float = 1.0, crash: Optional[bool] = None) -> FaultPlan:
    """The randomized background noise (the classic run's whole plan)."""
    return FaultPlan.randomized(
        run.seed,
        run.horizon_ns,
        n_server_processes=run.config.n_server_processes,
        intensity=run.intensity * scale,
        crash=run.crash if crash is None else crash,
        rnr_machine=run.cluster.client_devices[0].machine.name,
    )


def _half_noise(run: _Run) -> FaultPlan:
    """Reduced-intensity noise, no crash: what a pinned fault is layered
    on — and, alone, the ``nemesis`` scenario's plan when none is given."""
    return _noise(run, 0.5, crash=False)


def _pause_partition(run: _Run) -> FaultPlan:
    """The txn crash arm: partition 0's participant is paused at 0.35 h
    for 0.3 h (its memory survives), unless ``crash`` is off."""
    plan = FaultPlan(seed=run.seed)
    if run.crash:
        plan.crash_server(0, at_ns=0.35 * run.horizon_ns, down_ns=0.3 * run.horizon_ns)
    return plan


def _no_faults(run: _Run) -> FaultPlan:
    """The offered load IS the fault: no injected loss or crashes, so
    every shed and retry traces back to admission control."""
    return FaultPlan(seed=run.seed)


def _kill_primary(run: _Run) -> FaultPlan:
    victim = child_rng(run.seed, "chaos.scenario").randrange(
        run.config.n_server_processes
    )
    return _half_noise(run).crash_server(
        victim, at_ns=0.35 * run.horizon_ns, down_ns=0.3 * run.horizon_ns
    )


def _partition_primary(run: _Run) -> FaultPlan:
    """Isolates the primaries; fencing must turn their acks into nacks."""
    return _half_noise(run).flap_link(
        "server", at_ns=0.35 * run.horizon_ns, down_ns=0.25 * run.horizon_ns
    )


def _kill_migration_source(run: _Run) -> FaultPlan:
    """The join lands at 0.25h (:func:`_join_spares`), so a crash of
    partition 0's primary shortly after hits the first migration
    mid-copy — ``plan_join`` drains partition 0 first, and the move must
    abort, fail over, restart, and still lose nothing."""
    return _half_noise(run).crash_server(
        0, at_ns=0.27 * run.horizon_ns, down_ns=0.3 * run.horizon_ns
    )


def _join_spares(run: _Run) -> None:
    """Membership: the spare partitions join a quarter in, while traffic
    (and the pinned crash) is live."""
    config = run.config
    if config.n_active_partitions is None:
        raise ValueError(
            "migrate-under-kill needs an elastic config (n_active_partitions)"
        )
    for spare in range(config.n_active_partitions, config.n_server_processes):
        run.cluster.elastic.coordinator.schedule_join(
            spare, at_ns=0.25 * run.horizon_ns
        )


def _record(run: _Run, client) -> None:
    """Hook the client: check and record each completion, keep each latency."""
    client_id = client.client_id
    tail_from_ns = TAIL_FRAC * run.horizon_ns
    # tagged PUTs: the linearizability checker validates read values
    # against the write history instead of the static value function
    static_values = not isinstance(client.stream, _TaggedStream)
    records = run.records
    violations = run.violations
    responses = run.responses

    def respond(op, latency, success, now):
        responses.append((client_id, latency, success, now))

    def complete(op, success, value, now):
        if now >= tail_from_ns:
            run.tail_completed += 1
        if now < run.last_now:
            violations.append(
                "completion clock ran backwards (%.3f after %.3f)"
                % (now, run.last_now)
            )
        run.last_now = now
        wrong = None
        if op.op is not OpType.GET:
            wrong = None if success else "PUT failed for"
        elif not success:
            wrong = "GET miss for preloaded"
        elif static_values and value != value_for(op.item, run.value_size):
            wrong = "GET returned wrong bytes for"
        if wrong:
            violations.append("%s item %d (client %d)" % (wrong, op.item, client_id))
        records.append(
            "c%d %s %d %d %.3f" % (client_id, op.op.value, op.item, int(success), now)
        )

    client.payload_hook = complete
    client.response_hook = respond


def _undrained(run: _Run) -> list:
    return [c for c in run.cluster.clients if c.outstanding or any(c._parked)]


def _oracle_drain(run: _Run) -> List[str]:
    """Liveness: nothing stays outstanding or parked once faults stop."""
    return [
        "client %d failed to drain: %d outstanding, %d parked"
        % (client.client_id, client.outstanding, sum(len(q) for q in client._parked))
        for client in _undrained(run)
    ]


def _oracle_accounting(run: _Run) -> List[str]:
    """No lost acks: the per-client op identity, and window-slot closure
    (free + quarantined = W per partition)."""
    found = []
    for client in run.cluster.clients:
        if client.completed != client.issued - client.outstanding - client.abandoned:
            found.append(
                "client %(client_id)d accounting broken: issued=%(issued)d "
                "completed=%(completed)d outstanding=%(outstanding)d "
                "abandoned=%(abandoned)d" % vars(client)
            )
        if client.failures:
            found.append(
                "client %(client_id)d saw %(failures)d failed responses" % vars(client)
            )
        if client.outstanding:
            continue
        for server in range(run.config.n_server_processes):
            closed = len(client._slot_free[server]) + len(client._quarantined[server])
            if closed != run.config.window:
                found.append(
                    "client %d slot accounting leaked at server %d: "
                    "%d free + quarantined of %d"
                    % (client.client_id, server, closed, run.config.window)
                )
    return found


def _oracle_store(run: _Run) -> List[str]:
    """No duplicate side effects: every entry still holds ``value_for``."""
    found = []
    for item in range(run.n_items):
        kh = keyhash(item)
        partition = partition_of(kh, run.config.n_server_processes)
        server = run.cluster.servers[partition]
        if server.store.get(kh) != value_for(item, run.value_size):
            found.append(
                "store divergence for item %d on server %d" % (item, server.index)
            )
    run.divergences = len(found)
    return found


def _oracle_replication(run: _Run) -> List[str]:
    """The :mod:`repro.ha.checker` suite, whose verdict is the report's
    ``checker``: per-key linearizability (Wing–Gong), no acked write
    lost, no split-brain acks, monotonic backup hwm and fencing epochs.
    Final state is read from each partition's *current* primary — the
    replica a client would reach after the run — routed through the
    final shard map when the cluster is elastic."""
    cluster = run.cluster
    ha = cluster.ha
    final_map = cluster.elastic.shard_map if cluster.elastic is not None else None
    initial: Dict[bytes, Optional[bytes]] = {}
    final: Dict[bytes, Optional[bytes]] = {}
    for item in range(run.n_items):
        kh = keyhash(item)
        p = route_key(kh, run.config.n_server_processes, final_map)
        primary = ha.monitor.state[p].primary
        store = ha.replica_servers[primary if primary is not None else 0][p].store
        initial[kh] = value_for(item, run.value_size)
        final[kh] = store.get(kh)
    found = check_histories(run.histories, initial, final)
    run.ops_lost = lost_acked_writes(run.histories, final)
    if run.ops_lost:
        found.append("%d acked writes lost across failover" % run.ops_lost)
    found += split_brain(
        {
            (group.partition, epoch): ackers
            for group in ha.groups
            for epoch, ackers in group.ack_witness.items()
        }
    )
    regressions = sum(role.hwm_regressions for node in ha.nodes for role in node.roles)
    if regressions:
        found.append("%d backup high-water-mark regressions" % regressions)
    # every config the monitor broadcast must carry a strictly larger
    # epoch than the previous config of the same partition — a stalled
    # epoch would let a deposed primary's acks survive fencing
    last_epoch: Dict[int, int] = {}
    for partition, _primary, epoch in ha.monitor.config_log:
        prev = last_epoch.get(partition)
        if prev is not None and epoch <= prev:
            found.append(
                "fencing epoch regressed on partition %d: %d after %d"
                % (partition, epoch, prev)
            )
        last_epoch[partition] = epoch
    run.checker = "violated" if found else "linearizable"
    return found


def _oracle_serializable(run: _Run) -> List[str]:
    """Strict serializability of every transaction, the final store read
    last (``check_serializable``); its verdict is the report's ``checker``."""
    violation = run.outcome.violation
    run.checker = "serializable" if violation is None else "violated"
    return [] if violation is None else ["not strictly serializable: %s" % violation]


def _oracle_torn(run: _Run) -> List[str]:
    """Every final byte is explained by a committed or pending write."""
    torn = run.outcome.torn_writes
    return ["%d torn writes in the final state" % torn] if torn else []


def _oracle_crashes(run: _Run) -> List[str]:
    expected = sum(1 for c in run.plan.crashes if c.at_ns < run.horizon_ns)
    crashes = sum(s.crashes for s in run.cluster.servers)
    recoveries = sum(s.recoveries for s in run.cluster.servers)
    if crashes == expected and recoveries == expected:
        return []
    return [
        "crash/recovery mismatch: planned %d, crashed %d, recovered %d"
        % (expected, crashes, recoveries)
    ]


def _section_run(run: _Run) -> Iterator[str]:
    """Every completion record, fault counter and client counter."""
    yield from run.records
    for count in sorted(run.injector.counts.items()):
        yield "%s=%d" % count
    for client in run.cluster.clients:
        yield (
            "c%(client_id)d issued=%(issued)d completed=%(completed)d "
            "retries=%(retries)d dup=%(duplicate_responses)d "
            "late=%(late_responses)d abandoned=%(abandoned)d" % vars(client)
        )


def _section_history(run: _Run) -> Iterator[str]:
    """The txn history and the final store, as ``TxnReport.fingerprint``
    hashes them."""
    yield run.outcome.fingerprint


def _section_failover(run: _Run) -> Iterator[str]:
    """Failover *timing*: outages, promotions, per-client and -replica traffic."""
    monitor = run.cluster.ha.monitor
    rf, ack = run.config.replication_factor, run.config.ack_policy
    yield "scenario=%s rf=%d ack=%s" % (run.scenario, rf, ack)
    for outage in monitor.outages:
        yield "outage p%d %.3f %.3f" % outage
    yield (
        "promotions=%(promotions)d grants=%(grants)d configs=%(configs_sent)d "
        "lease_misses=%(lease_misses)d" % vars(monitor)
    )
    for client in run.cluster.clients:
        yield (
            "c%(client_id)d stale=%(stale_nacks)d replays=%(replays)d "
            "failovers=%(failovers)d" % vars(client)
        )
    for node in run.cluster.ha.nodes:
        yield (
            "rep%(replica_id)d shipped=%(updates_shipped)d acks=%(acks_sent)d "
            "hb=%(heartbeats_sent)d catchups=%(catchups_served)d" % vars(node)
        )


def _section_reshard(run: _Run) -> Iterator[str]:
    """On a shard map: the final map, every migration, each client's re-routing."""
    if run.cluster.elastic is None:
        return
    yield (
        "shardmap v=%(map_version)d done=%(migrations_done)d "
        "aborted=%(migrations_aborted)d sent=%(records_sent)d "
        "applied=%(records_applied)d adopted=%(maps_adopted)d"
        % run.cluster.elastic.counters()
    )
    for client in run.cluster.clients:
        yield (
            "c%(client_id)d reroutes=%(reroutes)d notowner=%(not_owner_nacks)d "
            "maps=%(map_refreshes)d" % vars(client)
        )


def _section_admission(run: _Run) -> Iterator[str]:
    """Every shed (by reason and tenant), every client's open-loop traffic."""
    yield "scenario=%s shedding=%d burst=%g" % (run.scenario, run.shedding, run.burst)
    yield from run.cluster.qos_runtime.counter_lines()
    for server in run.cluster.servers:
        yield "s%d shed=%d" % (server.index, server.shed)
    for client in run.cluster.clients:
        yield (
            "c%(client_id)d offered=%(offered)d overflow=%(overflow_dropped)d "
            "paused=%(nack_pause_drops)d nacks=%(retry_after_nacks)d "
            "rejected=%(rejected)d" % vars(client)
        )


def _herd_fields(run: _Run) -> Dict[str, object]:
    """The client counters, summed; slots re-scanned on recovery; sheds."""
    cluster = run.cluster
    fields = _totals(
        cluster.clients,
        *"issued completed abandoned retries duplicate_responses late_responses "
        "get_misses offered retry_after_nacks rejected overflow_dropped".split()
    )
    fields.update(
        recovered_slots=sum(s.recovered_slots for s in cluster.servers),
        ops_acked=fields["completed"],
        shed=cluster.qos_runtime.total_shed if cluster.qos_runtime else 0,
    )
    return fields


def _txn_fields(run: _Run) -> Dict[str, object]:
    """An attempt is issued, and completes as a commit or an abort (the
    client starts the transaction over); a torn write is a lost one."""
    outcome = run.outcome
    return dict(
        issued=outcome.commits + outcome.aborts,
        completed=outcome.commits,
        ops_acked=outcome.commits,
        abandoned=outcome.aborts,
        retries=outcome.retries,
        ops_lost=outcome.torn_writes,
        checker=run.checker,
        p999_us=outcome.result.latency["p999_us"],
    )


def _replicated_fields(run: _Run) -> Dict[str, object]:
    cluster = run.cluster
    config = run.config
    monitor = cluster.ha.monitor
    outage = monitor.outage_ns(up_to_ns=run.horizon_ns)
    closed = [adopted - lost for (_p, lost, adopted) in monitor.outages]
    partition_ns = config.n_server_processes * run.horizon_ns
    fields = dict(
        _totals(cluster.clients, "stale_nacks", "replays"),
        replication_factor=config.replication_factor,
        ack_policy=config.ack_policy,
        ops_lost=run.ops_lost,
        checker=run.checker,
        availability=max(0.0, 1.0 - outage / partition_ns),
        failover_latency_ns=sum(closed) / len(closed) if closed else 0.0,
        promotions=monitor.promotions,
    )
    if cluster.elastic is not None:
        counters = cluster.elastic.counters()
        fields.update(
            _totals(cluster.clients, "reroutes", "not_owner_nacks"),
            map_version=counters["map_version"],
            migrations_done=counters["migrations_done"],
            migrations_aborted=counters["migrations_aborted"],
            records_migrated=counters["records_applied"],
        )
    return fields


def _overload_fields(run: _Run) -> Dict[str, object]:
    """The goodput floor and tenant-isolation band: *report fields* for
    the lab gate and the tests to assert, not violations — a shedding-off
    control run may collapse and show it.  A completion slower than
    ``slo_ns`` is not useful work; tails split by tenant."""
    in_slo = [
        now
        for (_cid, latency, success, now) in run.responses
        if success and latency <= run.slo_ns
    ]

    def goodput_mops(window: str) -> float:
        start, end = run.span(window)
        return sum(1 for now in in_slo if start <= now < end) / (end - start) * 1e3

    pre_burst_mops, burst_mops = goodput_mops("pre"), goodput_mops("measure")
    tails: Dict[int, List[float]] = {}
    for cid, latency, _success, _now in run.responses:
        tails.setdefault(cid % run.entry.tenants, []).append(latency)
    return dict(
        # a diverged entry is an acked write the store lost (or
        # double-applied): the "zero lost acked writes" witness
        ops_lost=run.divergences,
        qos_enabled=run.shedding,
        pre_burst_mops=pre_burst_mops,
        burst_mops=burst_mops,
        goodput_ratio=burst_mops / pre_burst_mops if pre_burst_mops else 0.0,
        tenant_p99_us={
            tenant: _percentile(samples, 99.0) / 1000.0
            for tenant, samples in sorted(tails.items())
        },
    )


def _unreplicated(kwargs: Dict[str, object]) -> Dict[str, object]:
    """Same workload and cluster shape, rf = 1 and fault-free: the
    classic run, pricing the replication overhead."""
    no_faults = FaultPlan(seed=kwargs["seed"])
    return dict(kwargs, scenario=None, config=None, plan=no_faults)


def _born_full(kwargs: Dict[str, object]) -> Dict[str, object]:
    """Same seed, noise and pinned crash, but every partition active
    from the start: no spare, no migration."""
    bound = inspect.signature(run_chaos).bind(**kwargs)
    bound.apply_defaults()
    config = _elastic_config(_Run(**bound.arguments))
    full = replace(config, n_active_partitions=config.n_server_processes)
    return dict(kwargs, config=full)


def _unprotected(kwargs: Dict[str, object]) -> Dict[str, object]:
    return dict(kwargs, shedding=False)


def _herd(run: _Run) -> HerdCluster:
    """A HERD cluster on four client machines, the entry's ``prepare``
    adding its clients, wired and preloaded."""
    if run.config.retry_timeout_ns is None:
        raise ValueError("chaos needs retries enabled (retry_timeout_ns)")
    cluster = run.cluster = HerdCluster(
        config=run.config, n_client_machines=4, seed=run.seed
    )
    run.entry.prepare(run)
    cluster.wire()
    cluster.preload(range(run.n_items), run.value_size)
    return cluster


def _txn(run: _Run) -> Testbed:
    """A :class:`~repro.txn.TxnCluster` of ``n_clients`` on four machines."""
    from repro.txn import TxnCluster

    return TxnCluster(
        run.config, n_clients=run.n_clients, n_client_machines=4, seed=run.seed
    )


def _run_and_drain(run: _Run) -> None:
    """Record through the fault horizon, then let the windows drain."""
    cluster = run.cluster
    sim = cluster.sim
    for client in cluster.clients:
        _record(run, client)
        client.stop_after = run.horizon_ns
        client.start()
    cluster.start_servers()
    if run.entry.membership is not None:
        run.entry.membership(run)
    sim.call_in(run.horizon_ns, run.injector.deactivate)
    sim.run(until=run.horizon_ns)

    # a shard map's reshard queue also converges before the audit, so the
    # final map reflects the completed membership change
    resharding = cluster.elastic.coordinator if cluster.elastic is not None else None
    deadline = run.horizon_ns + run.drain_ns
    while sim.now < deadline and (
        _undrained(run) or not (resharding is None or resharding.idle())
    ):
        sim.run(until=min(sim.now + 100_000.0, deadline))


def _run_txn(run: _Run) -> None:
    """Transactions start until the horizon, every one in flight then
    completes; the TxnReport is ``run.outcome``."""
    run.outcome = run.cluster.run(warmup_ns=0.0, measure_ns=run.horizon_ns)


@dataclass(frozen=True)
class Scenario:
    """What one shape of chaos run *is*: everything :func:`run_chaos`
    looks up instead of branching on — plain functions of the run, in
    pipeline order.  docs/FAULTS.md tabulates the entries."""

    blurb: str  # one line, for ``--chaos-scenario list``
    #: the default for ``config=None`` (a HerdConfig, or a TxnConfig)
    config: Callable[[_Run], object]
    #: the testbed on ``run.config``, its clients added, preloaded
    build: Callable[[_Run], Testbed]
    #: runs the testbed through the fault horizon, then drains it
    drive: Callable[[_Run], None]
    plan: Callable[[_Run], FaultPlan]  # the default: noise + the pinned fault
    oracles: Tuple[Callable[[_Run], List[str]], ...]
    fingerprint: Tuple[Callable[[_Run], Iterator[str]], ...]
    #: ChaosReport fields beyond the common ones, merged in order, and
    #: their ``summary()`` lines (``%``-formatted with the report)
    fields: Tuple[Callable[[_Run], Dict[str, object]], ...]
    #: HERD builds only: adds the clients (streams, arrivals)
    prepare: Optional[Callable[[_Run], None]] = None
    #: HERD drives only: scheduled once clients and servers have started
    membership: Optional[Callable[[_Run], None]] = None
    summary: Tuple[str, ...] = ()
    #: run_chaos kwargs (with a seed) -> the kwargs of the reference run a
    #: run of this scenario is priced against (repro.lab); None: it has none
    reference: Optional[Callable[[Dict[str, object]], Dict[str, object]]] = None
    # overload entries only: the tenant count, and the goodput windows
    # (pre-burst baseline, the crowd, burst measurement) in horizon fractions
    tenants: int = 1
    windows: Optional[Dict[str, Tuple[float, float]]] = None


_CLASSIC = Scenario(
    blurb="the randomized-but-seeded fault mix on an unreplicated cluster",
    config=_classic_config,
    build=_herd,
    drive=_run_and_drain,
    plan=_noise,
    oracles=(_oracle_drain, _oracle_accounting, _oracle_store, _oracle_crashes),
    fingerprint=(_section_run,),
    fields=(_herd_fields,),
    prepare=_closed_loop,
)
_REPLICATED = replace(
    _CLASSIC,
    blurb=(
        "a replicated cluster under a caller-supplied (generated) fault "
        "schedule; every HA oracle on, no scenario fault pinned"
    ),
    config=_replicated_config,
    prepare=_tagged_clients,
    plan=_half_noise,
    oracles=(_oracle_drain, _oracle_accounting, _oracle_replication, _oracle_crashes),
    fingerprint=(_section_run, _section_failover, _section_reshard),
    fields=(_herd_fields, _replicated_fields),
    summary=(
        "  scenario %(scenario)s (rf=%(replication_factor)d, ack=%(ack_policy)s): "
        "%(ops_acked)d acked, %(ops_lost)d lost, checker %(checker)s",
        "  availability %(availability).4f, %(promotions)d promotions "
        "(mean failover %(failover_us).1f us), %(stale_nacks)d stale nacks, "
        "%(replays)d replays",
    ),
    reference=_unreplicated,
)
# The measurement window starts well after the crowd does: the first
# ~0.15h of a flash crowd is the queue-filling ramp, where even an
# unprotected server still answers in-SLO from a short queue — the
# goodput contract is about the sustained regime after the crowd has
# fully formed.
_OVERLOAD = replace(
    _CLASSIC,
    blurb=(
        "every client's offered load steps 10x for 40% of the horizon; "
        "admission control must hold goodput and the SLO"
    ),
    config=_overload_config,
    prepare=_flash_crowd_clients,
    plan=_no_faults,
    fingerprint=(_section_run, _section_admission),
    fields=(_herd_fields, _overload_fields),
    summary=(
        "  scenario %(scenario)s (qos %(qos)s): %(offered)d offered, %(shed)d shed, "
        "%(retry_after_nacks)d nacked, %(rejected)d rejected, "
        "%(overflow_dropped)d overflow-dropped",
        "  goodput %(pre_burst_mops).3f -> %(burst_mops).3f Mops in-SLO "
        "(ratio %(goodput_ratio).2f), p99.9 %(p999_us).1f us%(tenant_tails)s",
    ),
    reference=_unprotected,
    windows=dict(pre=(0.1, 0.4), burst=(0.4, 0.8), measure=(0.6, 0.8)),
)
_TXN = Scenario(
    blurb=(
        "multi-key transactions over server-mediated two-phase commit; "
        "partition 0's participant paused for 30% of the horizon"
    ),
    config=_txn_config,
    build=_txn,
    drive=_run_txn,
    plan=_pause_partition,
    oracles=(_oracle_serializable, _oracle_torn),
    fingerprint=(_section_history,),
    fields=(_txn_fields,),
    summary=(
        "  scenario %(scenario)s: %(completed)d commits, %(abandoned)d aborts, "
        "checker %(checker)s, %(ops_lost)d torn writes",
    ),
)

#: every shape of chaos run by ``scenario`` name, in listing order;
#: ``None`` is the classic run and ``send-send`` the same on SEND
#: requests.  The next three are replicated (HA) failover scenarios, the
#: next three unreplicated *overload* scenarios driven by open-loop
#: arrivals (repro.qos, docs/QOS.md), the last two the :mod:`repro.txn`
#: commit dataplanes (docs/TXN.md).
SCENARIOS: Dict[Optional[str], Scenario] = {
    None: _CLASSIC,
    "send-send": replace(
        _CLASSIC,
        blurb=(
            "the classic fault mix on SEND/SEND requests over UD, which the "
            "network may lose: the retry path must re-send them"
        ),
        config=_send_send_config,
    ),
    "kill-primary": replace(
        _REPLICATED,
        blurb="crash one partition's primary for 30% of the horizon",
        plan=_kill_primary,
    ),
    "partition-primary": replace(
        _REPLICATED,
        blurb="cut the primary machine's link, forcing a mass failover",
        plan=_partition_primary,
    ),
    "migrate-under-kill": replace(
        _REPLICATED,
        blurb=(
            "join a spare partition and kill the migration source's primary "
            "mid-resharding"
        ),
        config=_elastic_config,
        plan=_kill_migration_source,
        membership=_join_spares,
        reference=_born_full,
    ),
    "flash-crowd": _OVERLOAD,
    "aggressor-tenant": replace(
        _OVERLOAD,
        blurb=(
            "one tenant floods 10x while the other behaves; quotas must "
            "throttle the aggressor and shield the victim's tail"
        ),
        prepare=_aggressor_clients,
        tenants=2,
    ),
    # the "burst" is the backlog flush when the stall releases, so the
    # windows shift
    "slow-client": replace(
        _OVERLOAD,
        blurb=(
            "one client stalls, then releases its backlog as a thundering "
            "herd; shedding must absorb the head-of-line burst"
        ),
        prepare=_slow_client_clients,
        windows=dict(pre=(0.1, 0.3), burst=(0.6, 0.8), measure=(0.6, 0.8)),
    ),
    "nemesis": _REPLICATED,
    "txn-rpc": _TXN,
    "txn-onesided": replace(
        _TXN,
        blurb=(
            "multi-key transactions committed with one-sided verbs (CAS "
            "locks); partition 0's idle participant paused"
        ),
        config=_onesided_config,
    ),
}


def _build(run: _Run) -> None:
    """Resolve entry, config and plan; build the testbed, faults installed."""
    if run.scenario not in SCENARIOS:
        raise ValueError(
            "unknown scenario %r (have: %s)"
            % (run.scenario, ", ".join(name for name in SCENARIOS if name))
        )
    run.entry = SCENARIOS[run.scenario]
    if run.config is None:
        run.config = run.entry.config(run)
    run.cluster = run.entry.build(run)
    if run.plan is None:
        run.plan = run.entry.plan(run)
    # clamped to the horizon so the drain phase is fault-free
    run.plan = run.plan.clamped(run.horizon_ns)
    run.injector = run.cluster.install_faults(run.plan)


def _report(run: _Run) -> ChaosReport:
    cluster = run.cluster
    servers = cluster.servers
    digest = hashlib.sha256()
    for section in run.entry.fingerprint:
        for line in section(run):
            digest.update(line.encode())
            digest.update(b"\n")
    fields = dict(
        seed=run.seed,
        plan=run.plan.describe(),
        sim_ns=cluster.sim.now,
        server_crashes=sum(s.crashes for s in servers),
        server_recoveries=sum(s.recoveries for s in servers),
        fault_counts=dict(run.injector.counts),
        violations=run.violations,
        fingerprint=digest.hexdigest(),
        scenario=run.scenario,
        tail_completed=run.tail_completed,
        p999_us=_percentile([r[1] for r in run.responses], 99.9) / 1000.0,
    )
    for extra in run.entry.fields:
        fields.update(extra(run))
    report = ChaosReport(**fields)
    obs_report = RunReport.from_sim(cluster.sim, name="chaos-%d" % run.seed)
    if obs_report is not None:
        obs_report.outcomes.append(report.outcome_row())
        report.obs = obs_report
    return report


def run_chaos(
    seed: int = 0,
    horizon_ns: float = 300_000.0,
    drain_ns: float = 5_000_000.0,
    n_clients: int = 8,
    n_items: int = 256,
    value_size: int = 32,
    get_fraction: float = 0.5,
    intensity: float = 1.0,
    crash: bool = True,
    plan: Optional[FaultPlan] = None,
    config: Optional[HerdConfig] = None,
    scenario: Optional[str] = None,
    replication_factor: int = 3,
    ack_policy: str = "majority",
    lease_us: float = 5.0,
    heartbeat_us: float = 1.0,
    n_server_processes: Optional[int] = None,
    shedding: bool = True,
    burst: float = 10.0,
    slo_ns: float = 20_000.0,
) -> ChaosReport:
    """One seeded chaos run; see the module docstring for the checks.

    ``scenario`` names an entry of :data:`SCENARIOS` (tabulated in
    docs/FAULTS.md); ``None`` is the classic randomized run.  ``plan``
    and ``config`` replace the entry's defaults: ``plan=None`` is its
    background noise (:meth:`FaultPlan.randomized` scaled by
    ``intensity``, with a server crash if ``crash``) plus its pinned
    fault; any plan is clamped to the horizon, so the drain phase is
    fault-free.  The retry budget must be unlimited for the drain
    invariant to be checkable — a custom ``config`` may set one, at the
    cost of abandoned ops leaving the accounting identity.

    Replicated scenarios take ``replication_factor``, ``ack_policy``,
    ``lease_us`` and ``heartbeat_us``.  Overload scenarios take
    ``shedding`` (:mod:`repro.qos` admission control; off, framing and
    wiring stay identical, and the run is *expected* to collapse — not a
    violation), ``burst`` (the overload's scale) and ``slo_ns`` (only
    completions within it count as goodput).

    The ``txn-*`` entries build a :class:`~repro.txn.TxnCluster` (then
    ``config`` is a :class:`~repro.txn.TxnConfig`) from
    ``n_server_processes``, ``n_items``, ``value_size``, ``n_clients``
    and ``get_fraction``; a crash rule pauses a partition's participant.
    """
    run = _Run(**locals())  # the arguments, under their own names
    _build(run)
    run.entry.drive(run)
    for oracle in run.entry.oracles:
        run.violations.extend(oracle(run))
    return _report(run)
