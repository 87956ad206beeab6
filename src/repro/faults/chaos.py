"""The chaos harness: a HERD cluster under a randomized fault plan.

A chaos run builds a small cluster, preloads every key, installs a
seeded :class:`~repro.faults.plan.FaultPlan` (randomized by default),
runs it through a *fault horizon*, then turns the faults off and lets
the clients drain their windows.  Afterwards it checks the paper's
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
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.faults.plan import FaultPlan
from repro.faults.rng import child_rng
from repro.herd.cluster import HerdCluster
from repro.herd.config import HerdConfig, partition_of, route_key
from repro.workloads.ycsb import OpType, Workload, keyhash, value_for

#: named chaos scenarios, with the one-line descriptions
#: ``--chaos-scenario list`` prints.  The first three are replicated
#: (HA) failover scenarios; the last three are unreplicated *overload*
#: scenarios driven by open-loop arrivals (repro.qos, docs/QOS.md)
SCENARIOS = {
    "kill-primary": "crash one partition's primary for 30% of the horizon",
    "partition-primary": "cut the primary machine's link, forcing a mass failover",
    "migrate-under-kill": (
        "join a spare partition and kill the migration source's primary "
        "mid-resharding"
    ),
    "flash-crowd": (
        "every client's offered load steps 10x for 40% of the horizon; "
        "admission control must hold goodput and the SLO"
    ),
    "aggressor-tenant": (
        "one tenant floods 10x while the other behaves; quotas must "
        "throttle the aggressor and shield the victim's tail"
    ),
    "slow-client": (
        "one client stalls, then releases its backlog as a thundering "
        "herd; shedding must absorb the head-of-line burst"
    ),
    "nemesis": (
        "a replicated cluster under a caller-supplied (generated) fault "
        "schedule; every HA oracle on, no scenario fault pinned"
    ),
}
HA_SCENARIOS = ("kill-primary", "partition-primary", "migrate-under-kill", "nemesis")
OVERLOAD_SCENARIOS = ("flash-crowd", "aggressor-tenant", "slow-client")


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
    duplicate_responses: int
    late_responses: int
    get_misses: int
    server_crashes: int
    server_recoveries: int
    recovered_slots: int
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
        lines = [
            "chaos seed=%d: %s" % (self.seed, "OK" if self.ok else "FAILED"),
            "  %d issued, %d completed, %d abandoned in %.0f ns"
            % (self.issued, self.completed, self.abandoned, self.sim_ns),
            "  %d retries, %d duplicate responses, %d late responses"
            % (self.retries, self.duplicate_responses, self.late_responses),
            "  %d crashes, %d recoveries (%d slots re-scanned live)"
            % (self.server_crashes, self.server_recoveries, self.recovered_slots),
            "  faults: %s"
            % (
                ", ".join(
                    "%s=%d" % kv for kv in sorted(self.fault_counts.items())
                )
                or "none fired"
            ),
            "  fingerprint %s" % self.fingerprint[:16],
        ]
        if self.scenario in OVERLOAD_SCENARIOS:
            lines.insert(
                1,
                "  scenario %s (qos %s): %d offered, %d shed, %d nacked, "
                "%d rejected, %d overflow-dropped"
                % (
                    self.scenario,
                    "on" if self.qos_enabled else "off",
                    self.offered,
                    self.shed,
                    self.retry_after_nacks,
                    self.rejected,
                    self.overflow_dropped,
                ),
            )
            lines.insert(
                2,
                "  goodput %.3f -> %.3f Mops in-SLO (ratio %.2f), "
                "p99.9 %.1f us%s"
                % (
                    self.pre_burst_mops,
                    self.burst_mops,
                    self.goodput_ratio,
                    self.p999_us,
                    "".join(
                        ", tenant%d p99 %.1f us" % (t, p99)
                        for t, p99 in sorted(self.tenant_p99_us.items())
                    ),
                ),
            )
        elif self.scenario is not None:
            lines.insert(
                1,
                "  scenario %s (rf=%d, ack=%s): %d acked, %d lost, checker %s"
                % (
                    self.scenario,
                    self.replication_factor,
                    self.ack_policy,
                    self.ops_acked,
                    self.ops_lost,
                    self.checker or "n/a",
                ),
            )
            lines.insert(
                2,
                "  availability %.4f, %d promotions (mean failover %.1f us), "
                "%d stale nacks, %d replays"
                % (
                    self.availability,
                    self.promotions,
                    self.failover_latency_ns / 1000.0,
                    self.stale_nacks,
                    self.replays,
                ),
            )
            if self.map_version or self.migrations_done or self.migrations_aborted:
                lines.insert(
                    3,
                    "  shard map v%d: %d migrations done, %d aborted, "
                    "%d records moved, %d reroutes"
                    % (
                        self.map_version,
                        self.migrations_done,
                        self.migrations_aborted,
                        self.records_migrated,
                        self.reroutes,
                    ),
                )
        for violation in self.violations:
            lines.append("  VIOLATION: %s" % violation)
        return "\n".join(lines)


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

    ``plan=None`` uses :meth:`FaultPlan.randomized` (clamped to the
    horizon so the drain phase is fault-free).  The retry budget must be
    unlimited for the drain-liveness invariant to be checkable — pass a
    custom ``config`` to experiment with budgets, at the cost of
    abandoned ops being excluded from the accounting identity only.

    Passing ``scenario`` switches to a *replicated* run: the cluster is
    built with ``replication_factor`` replicas per partition, the named
    fault scenario is layered on top of reduced-intensity background
    noise, every PUT value is made unique, and the full history is fed
    to the :mod:`repro.ha.checker` — per-key linearizability, no acked
    write lost, no split-brain acks, monotonic backup high-water marks.
    Scenarios: ``kill-primary`` crashes one partition's primary for 30%
    of the horizon; ``partition-primary`` cuts the primary machine's
    link, forcing a mass failover and fencing the isolated primaries;
    ``migrate-under-kill`` builds an *elastic* cluster with one spare
    partition (owning no keys), joins it a quarter into the horizon so
    the coordinator live-migrates ranges onto it, and crashes the first
    migration source's primary mid-copy — the move must abort, fail
    over, restart, and still lose nothing.

    The *overload* scenarios (``flash-crowd``, ``aggressor-tenant``,
    ``slow-client``) instead run an unreplicated cluster with **open-loop
    arrivals** and no injected faults — the offered load itself is the
    fault.  ``shedding`` toggles the :mod:`repro.qos` admission control
    (the wire framing and QP wiring stay identical, so on/off runs are
    directly comparable), ``burst`` scales the overload event, and
    ``slo_ns`` is the response-time SLO: only completions within it
    count toward the ``pre_burst_mops`` / ``burst_mops`` goodput meters.
    The goodput floor (``goodput_ratio``), tenant tails, and shed
    accounting land in the report for the smoke / lab gates to assert —
    a shedding-off run is *expected* to collapse and is not a violation.
    """
    if scenario is not None and scenario not in SCENARIOS:
        raise ValueError(
            "unknown scenario %r (have: %s)" % (scenario, ", ".join(SCENARIOS))
        )
    ha_mode = scenario in HA_SCENARIOS
    overload_mode = scenario in OVERLOAD_SCENARIOS
    if ha_mode and value_size < 8:
        raise ValueError("HA chaos tags PUT values; value_size must be >= 8")
    elastic_mode = scenario == "migrate-under-kill"
    if config is None:
        if elastic_mode:
            ns = n_server_processes or 3
            if ns < 2:
                raise ValueError("migrate-under-kill needs >= 2 partitions")
            config = HerdConfig(
                n_server_processes=ns,
                n_active_partitions=ns - 1,  # one spare to join live
                window=4,
                retry_timeout_ns=10_000.0,
                adaptive_retry=True,
                min_retry_timeout_ns=5_000.0,
                replication_factor=replication_factor,
                ack_policy=ack_policy,
                lease_us=lease_us,
                heartbeat_us=heartbeat_us,
            )
        elif ha_mode:
            config = HerdConfig(
                n_server_processes=n_server_processes or 4,
                window=4,
                retry_timeout_ns=10_000.0,
                adaptive_retry=True,
                min_retry_timeout_ns=5_000.0,
                replication_factor=replication_factor,
                ack_policy=ack_policy,
                lease_us=lease_us,
                heartbeat_us=heartbeat_us,
            )
        elif overload_mode:
            from repro.qos import QosConfig

            aggressor = scenario == "aggressor-tenant"
            if shedding:
                qos = QosConfig(
                    queue_limit=32,
                    drop_policy="nack",
                    codel_target_ns=4_000.0,
                    codel_interval_ns=20_000.0,
                    n_tenants=2 if aggressor else 1,
                    tenant_rates=(None, 2.0) if aggressor else None,
                    tenant_weights=(4.0, 1.0) if aggressor else None,
                    retry_after_ns=16_000.0,
                    qp_pool=4,
                )
            else:
                # every limit off: identical wire framing and QP wiring,
                # but nothing is ever shed — the unprotected control arm
                qos = QosConfig(queue_limit=None, codel_target_ns=None, qp_pool=4)
            # deep windows + a fixed RTO: the classic recipe that lets a
            # flash crowd push sojourn far past the SLO when unprotected
            config = HerdConfig(
                n_server_processes=n_server_processes or 2,
                window=32,
                retry_timeout_ns=30_000.0,
                adaptive_retry=False,
                qos=qos,
            )
        else:
            config = HerdConfig(
                n_server_processes=n_server_processes or 4,
                window=4,
                retry_timeout_ns=30_000.0,
                adaptive_retry=True,
                min_retry_timeout_ns=15_000.0,
            )
    if config.retry_timeout_ns is None:
        raise ValueError("chaos needs retries enabled (retry_timeout_ns)")
    if ha_mode and config.replication_factor < 2:
        raise ValueError("HA scenarios need a config with replication_factor > 1")
    if elastic_mode and config.n_active_partitions is None:
        raise ValueError(
            "migrate-under-kill needs an elastic config (n_active_partitions)"
        )
    # Goodput windows (overload runs): a pre-burst baseline, the crowd
    # itself, and the *measurement* window for burst goodput.  The
    # measurement window starts well after the crowd does: the first
    # ~0.15h of a flash crowd is the queue-filling ramp, where even an
    # unprotected server still answers in-SLO from a short queue — the
    # goodput contract is about the sustained regime after the crowd
    # has fully formed.  slow-client's "burst" is the backlog flush
    # when the stall releases, so its windows shift.
    if scenario == "slow-client":
        pre_start, pre_end = 0.1 * horizon_ns, 0.3 * horizon_ns
        burst_start, burst_end = 0.6 * horizon_ns, 0.8 * horizon_ns
        measure_start, measure_end = burst_start, burst_end
    else:
        pre_start, pre_end = 0.1 * horizon_ns, 0.4 * horizon_ns
        burst_start, burst_end = 0.4 * horizon_ns, 0.8 * horizon_ns
        measure_start, measure_end = 0.6 * horizon_ns, 0.8 * horizon_ns

    cluster = HerdCluster(config=config, n_client_machines=4, seed=seed)
    workload = Workload(
        get_fraction=get_fraction, value_size=value_size, n_keys=n_items
    )
    if scenario == "aggressor-tenant" and n_clients == 8:
        # Six aggressors are needed to push the fleet past capacity:
        # an open-loop client's send path self-clocks at ~3 ops/us, so
        # four bursting clients alone cannot drown the victims.
        n_clients = 12
    cluster.add_clients(n_clients, workload)
    if ha_mode:
        for client in cluster.clients:
            client.stream = _TaggedStream(client.stream, client.client_id)
    if overload_mode:
        from repro.workloads import (
            FlashCrowdArrivals,
            PoissonArrivals,
            StalledArrivals,
        )

        # per-client steady rate: the fleet sits well under capacity
        # until the scenario's overload event lands
        base_rate = 0.45 * intensity
        for client in cluster.clients:
            rng = child_rng(seed, "qos.client%d.arrivals" % client.client_id)
            if scenario == "flash-crowd":
                client.arrivals = FlashCrowdArrivals(
                    base_rate,
                    rng,
                    burst_factor=burst,
                    burst_start_ns=burst_start,
                    burst_end_ns=burst_end,
                )
            elif scenario == "aggressor-tenant":
                if client.client_id % 2 == 1:  # odd clients: the aggressor
                    client.arrivals = FlashCrowdArrivals(
                        base_rate,
                        rng,
                        burst_factor=burst,
                        burst_start_ns=burst_start,
                        burst_end_ns=burst_end,
                    )
                else:
                    client.arrivals = PoissonArrivals(base_rate, rng)
            elif client.client_id == 0:  # slow-client: one stalled source
                client.arrivals = StalledArrivals(
                    PoissonArrivals(base_rate * 0.5 * burst, rng),
                    stall_start_ns=0.3 * horizon_ns,
                    stall_end_ns=0.6 * horizon_ns,
                    flush_gap_ns=50.0,
                )
            else:
                client.arrivals = PoissonArrivals(base_rate, rng)
    cluster.wire()
    cluster.preload(range(n_items), value_size)
    if plan is None:
        if ha_mode:
            # reduced-intensity background noise plus the named scenario
            plan = FaultPlan.randomized(
                seed,
                horizon_ns,
                n_server_processes=config.n_server_processes,
                intensity=intensity * 0.5,
                crash=False,
                rnr_machine=cluster.client_devices[0].machine.name,
            )
            scenario_rng = child_rng(seed, "chaos.scenario")
            victim = scenario_rng.randrange(config.n_server_processes)
            if scenario == "nemesis":
                # the nemesis harness normally supplies its generated
                # plan; with none given, background noise alone is the
                # schedule — no pinned scenario fault
                pass
            elif scenario == "kill-primary":
                plan.crash_server(
                    victim, at_ns=0.35 * horizon_ns, down_ns=0.3 * horizon_ns
                )
            elif scenario == "partition-primary":
                plan.flap_link(
                    "server", at_ns=0.35 * horizon_ns, down_ns=0.25 * horizon_ns
                )
            else:  # migrate-under-kill: the join lands at 0.25h (below),
                # so a crash of partition 0's primary shortly after hits
                # the first migration mid-copy — plan_join drains
                # partition 0 first, and the move must abort and restart
                plan.crash_server(
                    0, at_ns=0.27 * horizon_ns, down_ns=0.3 * horizon_ns
                )
        elif overload_mode:
            # the flash crowd IS the fault: no injected loss or crashes,
            # so every shed and retry traces back to admission control
            plan = FaultPlan(seed=seed)
        else:
            plan = FaultPlan.randomized(
                seed,
                horizon_ns,
                n_server_processes=config.n_server_processes,
                intensity=intensity,
                crash=crash,
                rnr_machine=cluster.client_devices[0].machine.name,
            )
    plan = plan.clamped(horizon_ns)
    injector = cluster.install_faults(plan)
    sim = cluster.sim

    # Completion records feed both the invariant checks and the
    # reproducibility fingerprint.
    records: List[str] = []
    violations: List[str] = []
    last_now = [0.0]
    tail_completed = [0]
    tail_from_ns = TAIL_FRAC * horizon_ns

    def make_hook(client_id: int):
        def hook(op, success, value, now):
            if now >= tail_from_ns:
                tail_completed[0] += 1
            if now < last_now[0]:
                violations.append(
                    "completion clock ran backwards (%.3f after %.3f)"
                    % (now, last_now[0])
                )
            last_now[0] = now
            if op.op is OpType.GET:
                if not success:
                    violations.append(
                        "GET miss for preloaded item %d (client %d)"
                        % (op.item, client_id)
                    )
                elif not ha_mode and value != value_for(op.item, value_size):
                    # HA runs tag PUT values; the linearizability
                    # checker validates read values against the write
                    # history instead of the static value function
                    violations.append(
                        "GET returned wrong bytes for item %d (client %d)"
                        % (op.item, client_id)
                    )
            elif not success:
                violations.append(
                    "PUT failed for item %d (client %d)" % (op.item, client_id)
                )
            records.append(
                "c%d %s %d %d %.3f"
                % (client_id, op.op.value, op.item, int(success), now)
            )

        return hook

    # Response latencies: every run records the p99.9 tail; overload
    # runs additionally meter *in-SLO* goodput around the burst window
    # (a completion slower than slo_ns is not useful work) and split
    # tails by tenant for the isolation contract.
    latencies: List[float] = []
    tenant_latencies: Dict[int, List[float]] = {}
    pre_good = [0]
    burst_good = [0]
    tenant_split = scenario == "aggressor-tenant"

    def make_response_hook(client_id: int):
        tenant = client_id % 2 if tenant_split else 0

        def hook(op, latency, success, now):
            latencies.append(latency)
            if not overload_mode:
                return
            tenant_latencies.setdefault(tenant, []).append(latency)
            if success and latency <= slo_ns:
                if pre_start <= now < pre_end:
                    pre_good[0] += 1
                elif measure_start <= now < measure_end:
                    burst_good[0] += 1

        return hook

    # HA runs additionally record the full invoke/response history, per
    # key, for the linearizability checker.  An op is identified by its
    # (client, partition, window slot, slot epoch) — exactly the token
    # the wire protocol uses to match responses.
    histories: Dict[bytes, list] = {}
    if ha_mode:
        from repro.ha import HaOp

        open_ops: Dict[tuple, "HaOp"] = {}

        def make_ha_hook(client_id: int):
            def hook(kind, op, server, slot, epoch, success, value, now):
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

            return hook

        for client in cluster.clients:
            client.ha_event_hook = make_ha_hook(client.client_id)

    for client in cluster.clients:
        client.payload_hook = make_hook(client.client_id)
        client.response_hook = make_response_hook(client.client_id)
        client.stop_after = horizon_ns
        client.start()
    cluster.start_servers()
    if cluster.elastic is not None and elastic_mode:
        # membership: the spare partitions join a quarter in, while
        # traffic (and, at 0.4h, the pinned crash) is live
        for spare in range(config.n_active_partitions, config.n_server_processes):
            cluster.elastic.coordinator.schedule_join(spare, at_ns=0.25 * horizon_ns)
    sim.call_in(horizon_ns, injector.deactivate)

    sim.run(until=horizon_ns)

    def drained() -> bool:
        return all(
            client.outstanding == 0 and not any(client._parked)
            for client in cluster.clients
        )

    def settled() -> bool:
        # elastic runs also let the reshard queue converge before the
        # audit, so the final map reflects the completed membership change
        return drained() and (
            cluster.elastic is None or cluster.elastic.coordinator.idle()
        )

    deadline = horizon_ns + drain_ns
    while sim.now < deadline and not settled():
        sim.run(until=min(sim.now + 100_000.0, deadline))

    # -- invariants --------------------------------------------------------
    if not drained():
        for client in cluster.clients:
            if client.outstanding or any(client._parked):
                violations.append(
                    "client %d failed to drain: %d outstanding, %d parked"
                    % (
                        client.client_id,
                        client.outstanding,
                        sum(len(q) for q in client._parked),
                    )
                )
    for client in cluster.clients:
        if client.completed != client.issued - client.outstanding - client.abandoned:
            violations.append(
                "client %d accounting broken: issued=%d completed=%d "
                "outstanding=%d abandoned=%d"
                % (
                    client.client_id,
                    client.issued,
                    client.completed,
                    client.outstanding,
                    client.abandoned,
                )
            )
        if client.failures:
            violations.append(
                "client %d saw %d failed responses"
                % (client.client_id, client.failures)
            )
        if client.outstanding == 0:
            for server in range(config.n_server_processes):
                closed = len(client._slot_free[server]) + len(
                    client._quarantined[server]
                )
                if closed != config.window:
                    violations.append(
                        "client %d slot accounting leaked at server %d: "
                        "%d free + quarantined of %d"
                        % (client.client_id, server, closed, config.window)
                    )
    ops_lost = 0
    checker_verdict = ""
    availability = 1.0
    failover_latency_ns = 0.0
    promotions = stale_nacks = replays = 0
    elastic_counters: Dict[str, int] = {}
    reroutes = not_owner_nacks = 0
    if not ha_mode:
        divergences = 0
        for item in range(n_items):
            kh = keyhash(item)
            server = cluster.servers[partition_of(kh, config.n_server_processes)]
            stored = server.store.get(kh)
            if stored != value_for(item, value_size):
                divergences += 1
                violations.append(
                    "store divergence for item %d on server %d"
                    % (item, server.index)
                )
        if overload_mode:
            # a diverged entry is an acked write the store lost (or
            # double-applied): the "zero lost acked writes" witness
            ops_lost = divergences
    else:
        from repro.ha import check_histories, lost_acked_writes, split_brain

        ha = cluster.ha
        monitor = ha.monitor
        ns = config.n_server_processes
        # Final state is read from each partition's *current* primary —
        # the replica a client would reach after the run — routed through
        # the final shard map when the cluster is elastic.
        final_map = cluster.elastic.shard_map if cluster.elastic is not None else None
        initial: Dict[bytes, Optional[bytes]] = {}
        final: Dict[bytes, Optional[bytes]] = {}
        for item in range(n_items):
            kh = keyhash(item)
            p = route_key(kh, ns, final_map)
            primary = monitor.state[p].primary
            store = ha.replica_servers[primary if primary is not None else 0][p].store
            initial[kh] = value_for(item, value_size)
            final[kh] = store.get(kh)
        lin = check_histories(histories, initial, final)
        violations.extend(lin)
        ops_lost = lost_acked_writes(histories, final)
        if ops_lost:
            violations.append("%d acked writes lost across failover" % ops_lost)
        witness = {
            (group.partition, epoch): ackers
            for group in ha.groups
            for epoch, ackers in group.ack_witness.items()
        }
        brains = split_brain(witness)
        violations.extend(brains)
        regressions = sum(
            role.hwm_regressions for node in ha.nodes for role in node.roles
        )
        if regressions:
            violations.append(
                "%d backup high-water-mark regressions" % regressions
            )
        # Fencing-epoch monotonicity: every config the monitor broadcast
        # must carry a strictly larger epoch than the previous config of
        # the same partition — a stalled epoch would let a deposed
        # primary's acks survive fencing.
        epoch_faults = 0
        last_epoch: Dict[int, int] = {}
        for partition, _primary, epoch in monitor.config_log:
            prev = last_epoch.get(partition)
            if prev is not None and epoch <= prev:
                epoch_faults += 1
                violations.append(
                    "fencing epoch regressed on partition %d: %d after %d"
                    % (partition, epoch, prev)
                )
            last_epoch[partition] = epoch
        checker_verdict = (
            "violated"
            if (lin or ops_lost or brains or regressions or epoch_faults)
            else "linearizable"
        )
        outage = monitor.outage_ns(up_to_ns=horizon_ns)
        availability = max(0.0, 1.0 - outage / (ns * horizon_ns))
        closed = [adopted - lost for (_p, lost, adopted) in monitor.outages]
        failover_latency_ns = sum(closed) / len(closed) if closed else 0.0
        promotions = monitor.promotions
        stale_nacks = sum(c.stale_nacks for c in cluster.clients)
        replays = sum(c.replays for c in cluster.clients)
        if cluster.elastic is not None:
            elastic_counters = cluster.elastic.counters()
            reroutes = sum(c.reroutes for c in cluster.clients)
            not_owner_nacks = sum(c.not_owner_nacks for c in cluster.clients)
    expected_crashes = sum(1 for c in plan.crashes if c.at_ns < horizon_ns)
    total_crashes = sum(s.crashes for s in cluster.servers)
    total_recoveries = sum(s.recoveries for s in cluster.servers)
    if total_crashes != expected_crashes or total_recoveries != expected_crashes:
        violations.append(
            "crash/recovery mismatch: planned %d, crashed %d, recovered %d"
            % (expected_crashes, total_crashes, total_recoveries)
        )

    # -- overload metrics --------------------------------------------------
    # The goodput floor and tenant-isolation band are *report fields*,
    # asserted by the qos smoke / lab gate / tests — not violations, so
    # a shedding-off control run is allowed to collapse and show it.
    p999_us = _percentile(latencies, 99.9) / 1000.0
    pre_burst_mops = burst_mops = 0.0
    goodput_ratio = 1.0
    tenant_p99_us: Dict[int, float] = {}
    if overload_mode:
        pre_burst_mops = pre_good[0] / (pre_end - pre_start) * 1e3
        burst_mops = burst_good[0] / (measure_end - measure_start) * 1e3
        goodput_ratio = burst_mops / pre_burst_mops if pre_burst_mops else 0.0
        tenant_p99_us = {
            tenant: _percentile(samples, 99.0) / 1000.0
            for tenant, samples in sorted(tenant_latencies.items())
        }

    # -- fingerprint -------------------------------------------------------
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.encode())
        digest.update(b"\n")
    for name, count in sorted(injector.counts.items()):
        digest.update(("%s=%d\n" % (name, count)).encode())
    for client in cluster.clients:
        digest.update(
            (
                "c%d issued=%d completed=%d retries=%d dup=%d late=%d abandoned=%d\n"
                % (
                    client.client_id,
                    client.issued,
                    client.completed,
                    client.retries,
                    client.duplicate_responses,
                    client.late_responses,
                    client.abandoned,
                )
            ).encode()
        )
    if ha_mode:
        # the HA fingerprint also pins failover *timing*: outage windows,
        # promotion counts, and every client's failover traffic
        monitor = cluster.ha.monitor
        digest.update(
            (
                "scenario=%s rf=%d ack=%s\n"
                % (scenario, config.replication_factor, config.ack_policy)
            ).encode()
        )
        for p, lost, adopted in monitor.outages:
            digest.update(("outage p%d %.3f %.3f\n" % (p, lost, adopted)).encode())
        digest.update(
            (
                "promotions=%d grants=%d configs=%d lease_misses=%d\n"
                % (
                    monitor.promotions,
                    monitor.grants,
                    monitor.configs_sent,
                    monitor.lease_misses,
                )
            ).encode()
        )
        for client in cluster.clients:
            digest.update(
                (
                    "c%d stale=%d replays=%d failovers=%d\n"
                    % (
                        client.client_id,
                        client.stale_nacks,
                        client.replays,
                        client.failovers,
                    )
                ).encode()
            )
        for node in cluster.ha.nodes:
            digest.update(
                (
                    "rep%d shipped=%d acks=%d hb=%d catchups=%d\n"
                    % (
                        node.replica_id,
                        node.updates_shipped,
                        node.acks_sent,
                        node.heartbeats_sent,
                        node.catchups_served,
                    )
                ).encode()
            )
        if cluster.elastic is not None:
            # elastic runs additionally pin the resharding outcome: the
            # final map, every migration, and each client's re-routing
            digest.update(
                (
                    "shardmap v=%d done=%d aborted=%d sent=%d applied=%d "
                    "adopted=%d\n"
                    % (
                        elastic_counters["map_version"],
                        elastic_counters["migrations_done"],
                        elastic_counters["migrations_aborted"],
                        elastic_counters["records_sent"],
                        elastic_counters["records_applied"],
                        elastic_counters["maps_adopted"],
                    )
                ).encode()
            )
            for client in cluster.clients:
                digest.update(
                    (
                        "c%d reroutes=%d notowner=%d maps=%d\n"
                        % (
                            client.client_id,
                            client.reroutes,
                            client.not_owner_nacks,
                            client.map_refreshes,
                        )
                    ).encode()
                )
    if overload_mode:
        # the overload fingerprint additionally pins the admission
        # outcome: every shed (by reason and tenant) and every client's
        # open-loop offered/dropped/nacked traffic
        digest.update(
            (
                "scenario=%s shedding=%d burst=%g\n"
                % (scenario, int(shedding), burst)
            ).encode()
        )
        for line in cluster.qos_runtime.counter_lines():
            digest.update((line + "\n").encode())
        for server in cluster.servers:
            digest.update(("s%d shed=%d\n" % (server.index, server.shed)).encode())
        for client in cluster.clients:
            digest.update(
                (
                    "c%d offered=%d overflow=%d paused=%d nacks=%d rejected=%d\n"
                    % (
                        client.client_id,
                        client.offered,
                        client.overflow_dropped,
                        client.nack_pause_drops,
                        client.retry_after_nacks,
                        client.rejected,
                    )
                ).encode()
            )

    report = ChaosReport(
        seed=seed,
        plan=plan.describe(),
        sim_ns=sim.now,
        issued=sum(c.issued for c in cluster.clients),
        completed=sum(c.completed for c in cluster.clients),
        abandoned=sum(c.abandoned for c in cluster.clients),
        retries=sum(c.retries for c in cluster.clients),
        duplicate_responses=sum(c.duplicate_responses for c in cluster.clients),
        late_responses=sum(c.late_responses for c in cluster.clients),
        get_misses=sum(c.get_misses for c in cluster.clients),
        server_crashes=total_crashes,
        server_recoveries=total_recoveries,
        recovered_slots=sum(s.recovered_slots for s in cluster.servers),
        fault_counts=dict(injector.counts),
        violations=violations,
        fingerprint=digest.hexdigest(),
        scenario=scenario,
        replication_factor=config.replication_factor if ha_mode else 1,
        ack_policy=config.ack_policy if ha_mode else "",
        ops_acked=sum(c.completed for c in cluster.clients),
        ops_lost=ops_lost,
        checker=checker_verdict,
        availability=availability,
        failover_latency_ns=failover_latency_ns,
        promotions=promotions,
        stale_nacks=stale_nacks,
        replays=replays,
        tail_completed=tail_completed[0],
        map_version=elastic_counters.get("map_version", 0),
        migrations_done=elastic_counters.get("migrations_done", 0),
        migrations_aborted=elastic_counters.get("migrations_aborted", 0),
        records_migrated=elastic_counters.get("records_applied", 0),
        reroutes=reroutes,
        not_owner_nacks=not_owner_nacks,
        p999_us=p999_us,
        qos_enabled=overload_mode and shedding,
        offered=sum(c.offered for c in cluster.clients),
        shed=cluster.qos_runtime.total_shed if cluster.qos_runtime else 0,
        retry_after_nacks=sum(c.retry_after_nacks for c in cluster.clients),
        rejected=sum(c.rejected for c in cluster.clients),
        overflow_dropped=sum(c.overflow_dropped for c in cluster.clients),
        pre_burst_mops=pre_burst_mops,
        burst_mops=burst_mops,
        goodput_ratio=goodput_ratio,
        tenant_p99_us=tenant_p99_us,
    )
    from repro.obs.report import RunReport  # deferred: optional layer

    obs_report = RunReport.from_sim(sim, name="chaos-%d" % seed)
    if obs_report is not None:
        obs_report.outcomes.append(report.outcome_row())
        report.obs = obs_report
    return report
