"""The transaction cluster: both dataplanes over one partitioned store.

One server machine hosts ``n_partitions`` partition stores and (for the
RPC dataplane) one :class:`~repro.txn.server.TxnServerProcess` per
partition.  Clients on separate machines run closed-loop multi-key
transactions through the dataplane named by ``TxnConfig.dataplane``:

* ``"rpc"`` — HERD-style server-mediated two-phase commit (UC request
  WRITEs in, UD SEND responses out, ``TXN_ONE`` one-shots for
  single-partition updates);
* ``"onesided"`` — client-driven lock/validate/install over RC verbs,
  locking with ``ATOMIC_CMP_AND_SWP`` and never involving a server CPU.

:meth:`TxnCluster.run` returns a :class:`TxnReport` that bundles the
usual throughput/latency result with the correctness audits the ISSUE
demands: the Wing–Gong serializability check over the full recorded
history (with the final store state as a synthetic read), a torn-write
audit that attributes every final byte to a committed transaction, and
a determinism fingerprint over the committed history + final state.

The crash arm, a plan ``CrashRule``, pauses one participant process
mid-run (HERD pause model: memory survives).  On the RPC dataplane
clients ride it out with idempotent retries; on the one-sided dataplane
commits keep flowing because the dataplane never needed that CPU — the
``commits_in_outage`` field makes the contrast measurable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bench.result import RunResult, collect
from repro.faults.rng import child_rng
from repro.ha.checker import TxnRecord, check_serializable
from repro.hw import APT, HardwareProfile
from repro.sim import LatencyRecorder, RateMeter
from repro.txn.client import VALUE_TAG_BYTES, TxnClientProcess, parse_value
from repro.txn.server import TxnServerProcess
from repro.txn.store import TxnPartitionStore
from repro.verbs import Testbed, Transport

DATAPLANES = ("rpc", "onesided")


@dataclass(frozen=True)
class TxnConfig:
    """Workload + protocol knobs for one transaction experiment."""

    dataplane: str = "rpc"
    n_partitions: int = 2
    n_keys: int = 256
    keys_per_txn: int = 3
    #: the first ``writes_per_txn`` picked keys are written (a txn's
    #: write set is always a subset of its read set)
    writes_per_txn: int = 2
    read_only_fraction: float = 0.5
    #: probability a transaction draws all its keys from the hot set
    hot_fraction: float = 0.0
    #: hot keys are {0, P, 2P, ...}: all in partition 0, so hot
    #: transactions are single-partition by construction
    n_hot: int = 4
    value_bytes: int = 24
    rpc_timeout_ns: float = 30_000.0
    backoff_ns: float = 1_500.0

    def __post_init__(self) -> None:
        if self.dataplane not in DATAPLANES:
            raise ValueError(
                "unknown dataplane %r; expected one of %s"
                % (self.dataplane, ", ".join(DATAPLANES))
            )
        # each rule is ``x >= lo``-style, so NaN fails it too
        for name, rule, ok in (
            ("n_partitions", ">= 1", self.n_partitions >= 1),
            ("n_keys", ">= 1", self.n_keys >= 1),
            ("keys_per_txn", ">= 1", self.keys_per_txn >= 1),
            ("writes_per_txn", ">= 0", self.writes_per_txn >= 0),
            ("read_only_fraction", "within [0, 1]", 0 <= self.read_only_fraction <= 1),
            ("hot_fraction", "within [0, 1]", 0 <= self.hot_fraction <= 1),
            ("rpc_timeout_ns", "> 0", self.rpc_timeout_ns > 0),
            ("backoff_ns", "> 0", self.backoff_ns > 0),
        ):
            if not ok:
                value = getattr(self, name)
                raise ValueError("%s must be %s; got %r" % (name, rule, value))
        if self.n_keys < self.keys_per_txn:
            # a transaction draws keys_per_txn distinct keys
            raise ValueError("n_keys must be >= keys_per_txn")
        if self.writes_per_txn > self.keys_per_txn:
            raise ValueError("writes_per_txn cannot exceed keys_per_txn")
        if not (self.value_bytes >= VALUE_TAG_BYTES):
            raise ValueError("value_bytes must be >= %d" % VALUE_TAG_BYTES)
        if self.dataplane == "onesided" and self.value_bytes % 8:
            # slots are value + header back to back, and each one's lock
            # word is the target of an 8-byte-aligned atomic
            raise ValueError("one-sided value_bytes must be a multiple of 8")
        if self.hot_fraction > 0 and self.n_hot < self.keys_per_txn:
            # a hot transaction draws all its (distinct) keys from the
            # hot set, so a smaller set can never complete the draw
            raise ValueError("n_hot must be >= keys_per_txn when hot_fraction > 0")

    @property
    def req_slot_bytes(self) -> int:
        """Request-region slot: sized for the largest request."""
        worst = 16 + self.keys_per_txn * 12 + self.writes_per_txn * (4 + self.value_bytes)
        return -(-worst // 64) * 64

    @property
    def resp_slot_bytes(self) -> int:
        worst = 16 + self.keys_per_txn * (12 + self.value_bytes)
        return max(256, -(-worst // 64) * 64)


@dataclass
class TxnReport:
    """Everything one transaction run measured and proved."""

    dataplane: str
    result: RunResult
    commits: int
    aborts: int
    abort_rate: float
    #: None = serializable; else the checker's reason string
    violation: Optional[str]
    torn_writes: int
    #: sha256 over the committed history + final store state
    fingerprint: str
    #: commits whose acknowledgement landed inside the crash window
    commits_in_outage: int = 0
    retries: int = 0
    server_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def serializable(self) -> bool:
        return self.violation is None

    @property
    def ok(self) -> bool:
        return self.serializable and self.torn_writes == 0

    def summary(self) -> str:
        lat = self.result.latency
        return (
            "txn[%s]: %.3f Mtxn/s, %d commits, %d aborts (%.1f%%), "
            "p50 %.1f us, p99 %.1f us, serializable=%s, torn=%d"
            % (
                self.dataplane, self.result.mops, self.commits, self.aborts,
                100.0 * self.abort_rate, lat.get("p50_us", 0.0), lat.get("p99_us", 0.0),
                self.serializable, self.torn_writes,
            )
        )


class TxnCluster(Testbed):
    """A transaction deployment on either commit dataplane."""

    def __init__(
        self,
        config: Optional[TxnConfig] = None,
        profile: HardwareProfile = APT,
        n_clients: int = 8,
        n_client_machines: int = 4,
        seed: int = 0,
    ) -> None:
        self.config = cfg = config if config is not None else TxnConfig()
        if cfg.dataplane == "rpc" and cfg.resp_slot_bytes + profile.grh_bytes > profile.mtu:
            raise ValueError(
                "%d B response slots plus the %d B GRH exceed the %d B MTU "
                "of the UD SEND a response rides" % (
                    cfg.resp_slot_bytes, profile.grh_bytes, profile.mtu)
            )
        super().__init__(profile, n_client_machines, seed)
        self.stores = [
            TxnPartitionStore(
                self.server_device, p, cfg.n_partitions, cfg.n_keys, cfg.value_bytes
            )
            for p in range(cfg.n_partitions)
        ]
        self.servers = [
            TxnServerProcess(p, self.server_device, self.stores[p], cfg.value_bytes)
            for p in range(cfg.n_partitions)
        ]
        if cfg.dataplane == "rpc":
            self._regions = []
            for p, server in enumerate(self.servers):
                region = self.server_device.register_memory(
                    max(1, n_clients) * cfg.req_slot_bytes
                )
                region.on_write = self._request_landed(server)
                server.region = region
                server.req_slot_bytes = cfg.req_slot_bytes
                server.ud_qp = self.server_device.create_qp(Transport.UD)
                self._regions.append(region)
        self._wire(n_clients, seed)
        #: commit ack timestamps, for the crash-window count
        self._commit_times: List[float] = []

    def _request_landed(self, server: TxnServerProcess):
        slot = self.config.req_slot_bytes

        def on_write(offset: int, _length: int) -> None:
            server.arrivals.put(offset // slot)

        return on_write

    def _wire(self, n_clients: int, seed: int) -> None:
        cfg = self.config
        for cid in range(n_clients):
            device = self.client_device(cid)
            rng = child_rng(seed, "txn.client.%d" % cid)
            client = TxnClientProcess(cid, device, cfg, rng)
            if cfg.dataplane == "rpc":
                _s_uc, client.rpc.uc_qp = self.connect(
                    self.server_device, device, Transport.UC
                )
                for p, region in enumerate(self._regions):
                    client.rpc.req_slots[p] = (
                        region.addr + cid * cfg.req_slot_bytes,
                        region.rkey,
                    )
                for server in self.servers:
                    assert len(server.client_ahs) == cid
                    server.client_ahs.append(
                        (device.machine.name, client.rpc.ud_qp.qpn)
                    )
            else:
                _s_rc, client.rc_qp = self.connect(
                    self.server_device, device, Transport.RC
                )
                for p, store in enumerate(self.stores):
                    client.store_slots[p] = (store.mr.addr, store.mr.rkey)
            self.clients.append(client)

    # ------------------------------------------------------------------

    def install_faults(self, plan):
        """Install a :class:`~repro.faults.plan.FaultPlan` on the
        cluster's fabric, devices and participants.

        A crash rule pauses partition ``server_index``'s participant
        process (:meth:`TxnServerProcess.crash`; its memory survives).
        The injector is deactivated at the measurement horizon by
        :meth:`run`, so the drain (and therefore the audited history's
        tail) is fault-free, mirroring the chaos harness.
        """
        # The one-sided commit protocol pipelines WRITEs on RC and relies
        # on the transport's in-order exactly-once contract (no CPU on the
        # path re-sequences them).  The fabric injector acts *below* PSN
        # on real hardware, so model the PSN machinery whenever a rule
        # acts on the fabric or a device; a pause alone loses no packet.
        if not replace(plan, crashes=[]).empty:
            for device in self.devices.values():
                device.enforce_rc_ordering = True
        return super().install_faults(plan)

    def start_servers(self) -> None:
        # the one-sided dataplane never involves a server CPU
        if self.config.dataplane == "rpc":
            super().start_servers()

    def run(self, warmup_ns: float = 20_000.0, measure_ns: float = 150_000.0) -> TxnReport:
        window_end = warmup_ns + measure_ns
        metrics = getattr(self.sim, "metrics", None)

        def commit_hook(now: float) -> None:
            self._commit_times.append(now)
            if metrics is not None:
                metrics.counter("txn.commits").inc()

        def abort_hook(_now: float) -> None:
            if metrics is not None:
                metrics.counter("txn.aborts").inc()

        for client in self.clients:
            client.commit_hook = commit_hook
            client.abort_hook = abort_hook
            client.stop_at = window_end
        meter, latencies = self.open_window(warmup_ns, measure_ns)
        if self.injector is not None:
            self.sim.call_in(window_end, self.injector.deactivate)
        self.sim.run(until=window_end)
        # Drain: clients stop starting transactions at the horizon but
        # in-flight ones complete, so the audited history has no
        # artificially torn tails.
        self.sim.run_until_idle()
        return self._report(meter, latencies, measure_ns)

    # -- audits --------------------------------------------------------

    def _final_state(self) -> Dict[int, bytes]:
        out: Dict[int, bytes] = {}
        for store in self.stores:
            for key, (_version, value) in store.scan().items():
                out[key] = value
        return out

    def _torn_writes(self, history: List[TxnRecord], final: Dict[int, bytes]) -> int:
        """Final values that no committed/pending transaction explains."""
        legal: Dict[Tuple[int, int], set] = {}
        for txn in history:
            if txn.status == "aborted":
                continue
            for key, _value in txn.writes:
                legal.setdefault((txn.client, txn.txn_id % 1_000_000), set()).add(key)
        torn = 0
        for key, value in final.items():
            tag = parse_value(value)
            if tag is None:
                continue  # initial zeros: never written
            client, seq, tagged_key = tag
            if tagged_key != key or key not in legal.get((client, seq), ()):
                torn += 1
        return torn

    def _fingerprint(self, history: List[TxnRecord], final: Dict[int, bytes]) -> str:
        h = hashlib.sha256()
        for txn in sorted(history, key=lambda t: (t.client, t.txn_id)):
            h.update(
                repr((txn.txn_id, txn.client, txn.status, txn.invoke, txn.respond,
                      txn.reads, txn.writes)).encode()
            )
        for key in sorted(final):
            h.update(b"%d:" % key + final[key])
        return h.hexdigest()

    def _report(self, meter: RateMeter, latencies: LatencyRecorder,
                measure_ns: float) -> TxnReport:
        cfg = self.config
        history: List[TxnRecord] = []
        for client in self.clients:
            history.extend(client.history)
        commits = sum(c.commits for c in self.clients)
        aborts = sum(c.aborts for c in self.clients)
        attempts = commits + aborts
        final = self._final_state()
        initial = {k: b"\x00" * cfg.value_bytes for k in range(cfg.n_keys)}
        violation = check_serializable(history, initial=initial, final=final)
        torn = self._torn_writes(history, final)
        crashes = self.injector.plan.crashes if self.injector is not None else ()
        commits_in_outage = sum(
            any(c.at_ns <= t < c.at_ns + c.down_ns for c in crashes)
            for t in self._commit_times
        )
        retries = 0
        if cfg.dataplane == "rpc":
            retries = sum(c.rpc.retries for c in self.clients)
        server_counters = {
            "requests_handled": sum(s.requests_handled for s in self.servers),
            "commits_applied": sum(s.commits_applied for s in self.servers),
            "prepares_rejected": sum(s.prepares_rejected for s in self.servers),
            "duplicates_answered": sum(s.duplicates_answered for s in self.servers),
            "atomics_served": self.server_device.atomics_served,
        }
        return TxnReport(
            dataplane=cfg.dataplane,
            result=collect(meter, latencies, measure_ns),
            commits=commits,
            aborts=aborts,
            abort_rate=aborts / attempts if attempts else 0.0,
            violation=violation,
            torn_writes=torn,
            fingerprint=self._fingerprint(history, final),
            commits_in_outage=commits_in_outage,
            retries=retries,
            server_counters=server_counters,
        )
