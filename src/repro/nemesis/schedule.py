"""Nemesis schedules: seeded random fault programs per dataplane.

A :class:`Schedule` is one self-contained experiment: a dataplane name
(which system to torture), a seed (which also seeds the cluster and
workload), and a :class:`~repro.faults.plan.FaultPlan` composed from
the full fault vocabulary — loss, corruption, duplication, delay,
reordering, gray degradation, one-way partitions, heartbeat-selective
loss, NIC stalls, QP errors, RNR windows, link flaps, and process
crashes.

:func:`generate` draws a schedule from named child streams of its
seed (:func:`repro.faults.rng.derive_seed`), so schedule ``(seed, dp)``
is byte-for-byte reproducible forever: the generator never consults
global randomness, and every dataplane's runner parameters live in the
:data:`DATAPLANES` registry rather than in the schedule itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.faults.rng import child_rng, derive_seed
from repro.verbs.packets import PacketKind

#: every wire packet kind a kind-aimed drop can name, derived from
#: :class:`~repro.verbs.packets.PacketKind` so that a new kind (as
#: ``ATOMIC_REQ`` / ``ATOMIC_RESP`` were, with the transaction
#: dataplanes) is a target the day it lands
RANDOMIZED_KIND_POOL = tuple(kind.value for kind in PacketKind)


@dataclass(frozen=True)
class DataplaneSpec:
    """Everything the generator and runner need to know about one
    dataplane: the fault horizon, the runner kwargs, and the machine
    vocabulary fault rules may legally name."""

    name: str
    horizon_ns: float
    #: the run_chaos kwargs
    params: Dict[str, Any]
    #: machines that exist (device-level faults must name one of these)
    machines: Tuple[str, ...]
    client_machines: Tuple[str, ...]
    #: index space for crash rules (server processes / txn partitions)
    n_servers: int
    #: machines that heartbeat to the lease monitor ("" = no monitor)
    heartbeaters: Tuple[str, ...] = ()
    max_crashes: int = 1
    #: move names :func:`generate` must not draw for this dataplane,
    #: because the dataplane's transport would mask the fault on real
    #: hardware (see txn-onesided)
    exclude_moves: Tuple[str, ...] = ()


_CLIENTS = ("cm0", "cm1", "cm2", "cm3")

#: every dataplane the nemesis can torture, keyed by name
DATAPLANES: Dict[str, DataplaneSpec] = {
    "herd": DataplaneSpec(
        name="herd",
        horizon_ns=120_000.0,
        params=dict(
            n_clients=4, n_items=48, value_size=24, n_server_processes=2
        ),
        machines=("server",) + _CLIENTS,
        client_machines=_CLIENTS,
        n_servers=2,
        max_crashes=2,
    ),
    **{
        name: DataplaneSpec(
            name=name,
            horizon_ns=300_000.0,
            params=dict(
                scenario=scenario,
                n_clients=4,
                n_items=48,
                value_size=24,
                n_server_processes=servers,
                replication_factor=3,
                ack_policy="majority",
            ),
            machines=("server", "rep1", "rep2", "monitor") + _CLIENTS,
            client_machines=_CLIENTS,
            n_servers=servers,
            heartbeaters=("server", "rep1", "rep2"),
            max_crashes=1,
        )
        for name, scenario, servers in (
            ("ha", "nemesis", 2),
            ("elastic", "migrate-under-kill", 3),
        )
    },
    "qos": DataplaneSpec(
        name="qos",
        horizon_ns=300_000.0,
        params=dict(scenario="flash-crowd", shedding=True),
        machines=("server",) + _CLIENTS,
        client_machines=_CLIENTS,
        n_servers=2,
        max_crashes=0,  # the flash crowd is the fault; keep loss gray
    ),
    **{
        name: DataplaneSpec(
            name=name,
            horizon_ns=120_000.0,
            params=dict(
                scenario=name, n_server_processes=2, n_items=128, value_size=24, n_clients=8
            ),
            machines=("server",) + _CLIENTS,
            client_machines=_CLIENTS,
            n_servers=2,
            max_crashes=1,  # a crash rule pauses one participant
        )
        for name in ("txn-rpc", "txn-onesided")
    },
}

#: round-robin order used by the search loop (sorted: stable forever)
DATAPLANE_NAMES = tuple(sorted(DATAPLANES))


@dataclass
class Schedule:
    """One nemesis experiment: a dataplane, a seed, and a fault plan."""

    seed: int
    dataplane: str
    plan: FaultPlan
    #: overrides merged over the dataplane spec's runner params
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def spec(self) -> DataplaneSpec:
        return DATAPLANES[self.dataplane]

    @property
    def horizon_ns(self) -> float:
        return self.spec.horizon_ns

    def runner_params(self) -> Dict[str, Any]:
        merged = dict(self.spec.params)
        merged.update(self.params)
        return merged

    def with_plan(self, plan: FaultPlan) -> "Schedule":
        """The same experiment under a different (e.g. shrunk) plan."""
        return Schedule(
            seed=self.seed,
            dataplane=self.dataplane,
            plan=plan,
            params=dict(self.params),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "dataplane": self.dataplane,
            "plan": self.plan.to_dict(),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schedule":
        dataplane = data["dataplane"]
        if dataplane not in DATAPLANES:
            raise ValueError(
                "unknown dataplane %r (have: %s)"
                % (dataplane, ", ".join(DATAPLANE_NAMES))
            )
        return cls(
            seed=int(data["seed"]),
            dataplane=dataplane,
            plan=FaultPlan.from_dict(data["plan"]),
            params=dict(data.get("params", {})),
        )


def _window(rng, horizon_ns: float, max_frac: float = 0.4) -> Tuple[float, float]:
    start = rng.uniform(0.0, 0.55) * horizon_ns
    end = start + rng.uniform(0.08, max_frac) * horizon_ns
    return start, min(end, horizon_ns)


def generate(seed: int, dataplane: Optional[str] = None) -> Schedule:
    """Draw one random schedule, deterministically, from ``seed``.

    The plan's own seed is a named child of the schedule seed, so the
    injector's packet-level coin flips are independent of the draws
    made here — adding a new move to the vocabulary changes future
    schedules, never the injection randomness of an existing plan.
    """
    rng = child_rng(seed, "nemesis.schedule")
    if dataplane is None:
        dataplane = DATAPLANE_NAMES[rng.randrange(len(DATAPLANE_NAMES))]
    spec = DATAPLANES[dataplane]
    horizon = spec.horizon_ns
    plan = FaultPlan(seed=derive_seed(seed, "nemesis.plan"))
    crashes_left = spec.max_crashes

    def pick(seq):
        return seq[rng.randrange(len(seq))]

    def mv_drop() -> None:
        src, dst = pick((("*", "server"), ("server", "*"), ("*", "*")))
        start, end = _window(rng, horizon)
        plan.drop(src=src, dst=dst, rate=rng.uniform(0.02, 0.15),
                  start_ns=start, end_ns=end)

    def mv_kind_drop() -> None:
        kind = pick(RANDOMIZED_KIND_POOL)
        start, end = _window(rng, horizon)
        plan.drop(rate=rng.uniform(0.05, 0.3), start_ns=start, end_ns=end,
                  packet_kind=kind)

    def mv_corrupt() -> None:
        start, end = _window(rng, horizon)
        plan.corrupt(rate=rng.uniform(0.01, 0.08), start_ns=start, end_ns=end)

    def mv_duplicate() -> None:
        start, end = _window(rng, horizon)
        plan.duplicate(rate=rng.uniform(0.01, 0.06),
                       copies=rng.randint(1, 2),
                       dup_delay_ns=rng.uniform(500.0, 3_000.0),
                       start_ns=start, end_ns=end)

    def mv_delay() -> None:
        start, end = _window(rng, horizon)
        plan.delay(rng.uniform(1_000.0, 8_000.0), rate=rng.uniform(0.05, 0.3),
                   start_ns=start, end_ns=end)

    def mv_reorder() -> None:
        start, end = _window(rng, horizon)
        plan.reorder(rng.uniform(1_000.0, 6_000.0),
                     rate=rng.uniform(0.05, 0.3), start_ns=start, end_ns=end)

    def mv_degrade() -> None:
        src, dst = pick((("server", "*"), ("*", "server")))
        start, end = _window(rng, horizon)
        plan.degrade(src=src, dst=dst,
                     latency_add_ns=rng.uniform(500.0, 4_000.0),
                     rate_mult=rng.uniform(0.25, 0.9),
                     start_ns=start, end_ns=end)

    def mv_partition_oneway() -> None:
        client = pick(spec.client_machines)
        src, dst = pick(((client, "server"), ("server", client)))
        start, end = _window(rng, horizon, max_frac=0.25)
        plan.partition_oneway(src, dst, start_ns=start, end_ns=end)

    def mv_nic_stall() -> None:
        plan.nic_stall(pick(spec.machines),
                       engine=pick(("ingress", "egress")),
                       at_ns=rng.uniform(0.1, 0.7) * horizon,
                       duration_ns=rng.uniform(0.005, 0.03) * horizon)

    def mv_qp_error() -> None:
        # qpn 1 is the first QP a device creates; every client machine
        # in every dataplane has one
        plan.qp_error(pick(spec.client_machines), qpn=1,
                      at_ns=rng.uniform(0.1, 0.6) * horizon,
                      recover_after_ns=rng.uniform(0.05, 0.2) * horizon)

    def mv_rnr() -> None:
        start, end = _window(rng, horizon)
        plan.rnr(pick(spec.client_machines), rate=rng.uniform(0.05, 0.25),
                 start_ns=start, end_ns=end)

    def mv_flap() -> None:
        plan.flap_link(pick(spec.client_machines),
                       at_ns=rng.uniform(0.1, 0.6) * horizon,
                       down_ns=rng.uniform(0.02, 0.08) * horizon)

    def mv_crash() -> None:
        plan.crash_server(rng.randrange(spec.n_servers),
                          at_ns=rng.uniform(0.2, 0.5) * horizon,
                          down_ns=rng.uniform(0.1, 0.25) * horizon)

    def mv_lose_heartbeats() -> None:
        start, end = _window(rng, horizon, max_frac=0.3)
        plan.lose_heartbeats(pick(spec.heartbeaters),
                             rate=rng.uniform(0.6, 1.0),
                             start_ns=start, end_ns=end,
                             direction=pick(("to_monitor", "from_monitor")))

    named_moves = [
        ("drop", mv_drop), ("kind_drop", mv_kind_drop),
        ("corrupt", mv_corrupt), ("duplicate", mv_duplicate),
        ("delay", mv_delay), ("reorder", mv_reorder),
        ("degrade", mv_degrade), ("partition_oneway", mv_partition_oneway),
        ("nic_stall", mv_nic_stall), ("qp_error", mv_qp_error),
        ("rnr", mv_rnr), ("flap", mv_flap),
    ]
    if spec.max_crashes:
        named_moves.append(("crash", mv_crash))
    if spec.heartbeaters:
        named_moves.append(("lose_heartbeats", mv_lose_heartbeats))
    unknown = set(spec.exclude_moves) - {name for name, _ in named_moves}
    if unknown:
        raise ValueError("unknown exclude_moves: %s" % sorted(unknown))
    moves = [fn for name, fn in named_moves if name not in spec.exclude_moves]

    for _ in range(rng.randint(2, 6)):
        move = pick(moves)
        if move is mv_crash:
            if crashes_left == 0:
                continue
            crashes_left -= 1
        move()
    return Schedule(seed=seed, dataplane=dataplane, plan=plan)
