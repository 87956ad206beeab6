"""Pilaf-em-OPT: the emulated Pilaf comparison system (Section 5.1.1).

Pilaf's protocol:

* **GET** — the client traverses the server's 3-1 cuckoo hash table
  with RDMA READs: 1.6 bucket READs on average (32-byte buckets), then
  a READ of the value from the extents.  The second candidate bucket is
  read only if the first probe misses — lower throughput than issuing
  both concurrently, but that is the configuration the paper evaluates.
* **PUT** — the client SENDs the SK+SV-byte item to the server, which
  answers with a SEND.

Following the paper's methodology, the emulation omits Pilaf's backing
data structures (the server answers instantly, giving Pilaf the maximum
possible advantage) but performs every network and NIC step for real.
"OPT" means all of the paper's optimizations are applied to the
messaging legs: inlining and selective signaling (the READ path needs
RC, so the whole QP is RC, as in Pilaf).

Each client process keeps ``window`` operations in flight, pipelined on
**one** RC queue pair — like Pilaf's asynchronous clients — so the
server holds NC connected QPs, not NC * window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.bench.result import RunResult, collect
from repro.hw import APT, HardwareProfile
from repro.kv.hashing import hash_key
from repro.sim import Event, Store
from repro.verbs import (
    CompletionQueue,
    QueuePair,
    RdmaDevice,
    RecvRequest,
    Testbed,
    Transport,
    WorkRequest,
)
from repro.workloads.ycsb import Workload, WorkloadStream

BUCKET_BYTES = 32
_RECV_SLOT = 40 + 2048


@dataclass(frozen=True)
class PilafConfig:
    key_bytes: int = 16
    value_bytes: int = 32
    #: average cuckoo probes per GET at 75% occupancy (Section 5.1.1)
    avg_probes: float = 1.6
    #: operations each client process keeps in flight
    window: int = 4
    n_server_processes: int = 6


class _PilafClientProcess:
    """A client process: one RC QP, ``window`` pipelined operations."""

    def __init__(
        self,
        cid: int,
        device: RdmaDevice,
        config: PilafConfig,
        stream: WorkloadStream,
        seed: int,
    ) -> None:
        self.cid = cid
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.stream = stream
        self._rng = random.Random(seed)
        self.qp: Optional[QueuePair] = None
        self.table_addr = 0
        self.table_rkey = 0
        self.table_bytes = 0
        self.extents_addr = 0
        self.extents_rkey = 0
        self.extents_bytes = 0
        self.sink = device.register_memory(config.window * 4096)
        self._staging = device.register_memory(config.window * 2048)
        self.recv_mr = device.register_memory(2 * config.window * _RECV_SLOT)
        #: per-lane completion mailboxes, fed by the dispatchers
        self._read_done = [Store(self.sim) for _ in range(config.window)]
        self._resp_done = [Store(self.sim) for _ in range(config.window)]
        self.completed_hook = None
        self.gets = 0
        self.puts = 0
        self.probes_issued = 0

    def start(self) -> None:
        self.sim.process(self._dispatch_sends(), name="pilaf-c%d-scq" % self.cid)
        self.sim.process(self._dispatch_recvs(), name="pilaf-c%d-rcq" % self.cid)
        for lane in range(self.config.window):
            self.sim.process(self._lane(lane), name="pilaf-c%d-l%d" % (self.cid, lane))

    # -- completion routing -------------------------------------------------

    def _dispatch_sends(self) -> Generator[Event, None, None]:
        while True:
            cqe = yield self.qp.send_cq.pop()
            self._read_done[cqe.wr_id].put(cqe)

    def _dispatch_recvs(self) -> Generator[Event, None, None]:
        while True:
            cqe = yield self.qp.recv_cq.pop()
            self._resp_done[cqe.wr_id % self.config.window].put(cqe)

    # -- operation lanes -------------------------------------------------------

    def _lane(self, lane: int) -> Generator[Event, None, None]:
        while True:
            op = self.stream.next_op()
            started = self.sim.now
            if op.is_get:
                yield from self._get(lane, op.key)
                self.gets += 1
            else:
                yield from self._put(lane, op.key, op.value)
                self.puts += 1
            if self.completed_hook is not None:
                self.completed_hook(self.sim.now, self.sim.now - started)

    def _probe_count(self) -> int:
        """1 or 2 bucket probes, averaging ``avg_probes``."""
        extra = self.config.avg_probes - 1.0
        return 2 if self._rng.random() < extra else 1

    def _get(self, lane: int, key: bytes) -> Generator[Event, None, None]:
        for probe in range(self._probe_count()):
            bucket = hash_key(key, probe) % (self.table_bytes // BUCKET_BYTES)
            wr = WorkRequest.read(
                raddr=self.table_addr + bucket * BUCKET_BYTES,
                rkey=self.table_rkey,
                local=(self.sink, lane * 4096, BUCKET_BYTES),
                wr_id=lane,
            )
            yield from self.device.post_send_timed(self.qp, wr)
            yield self._read_done[lane].get()
            yield self.sim.timeout(self.profile.cq_poll_ns)
            self.probes_issued += 1
        # Follow the pointer: READ the value from the extents.
        value_len = self.config.value_bytes
        offset = hash_key(key, 7) % max(1, self.extents_bytes - value_len)
        wr = WorkRequest.read(
            raddr=self.extents_addr + offset,
            rkey=self.extents_rkey,
            local=(self.sink, lane * 4096 + 64, value_len),
            wr_id=lane,
        )
        yield from self.device.post_send_timed(self.qp, wr)
        yield self._read_done[lane].get()
        yield self.sim.timeout(self.profile.cq_poll_ns)

    def _put(self, lane: int, key: bytes, value: bytes) -> Generator[Event, None, None]:
        offset = lane * _RECV_SLOT
        yield from self.device.post_recv_timed(
            self.qp,
            RecvRequest(wr_id=lane, local=(self.recv_mr, offset, _RECV_SLOT)),
        )
        payload = key + value
        if len(payload) <= self.profile.max_inline:
            wr = WorkRequest.send(payload=payload, inline=True, signaled=False)
        else:
            self._staging.write(lane * 2048, payload)
            wr = WorkRequest.send(
                local=(self._staging, lane * 2048, len(payload)), signaled=False
            )
        yield from self.device.post_send_timed(self.qp, wr)
        yield self._resp_done[lane].get()
        yield self.sim.timeout(self.profile.cq_poll_ns)


class _PilafServerProcess:
    """A server core handling the PUT path (GETs bypass the CPU)."""

    def __init__(self, index: int, device: RdmaDevice) -> None:
        self.index = index
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.recv_cq = CompletionQueue(self.sim, "ps%d.rcq" % index)
        #: per assigned client process: recv_qp, recv_mr
        self.clients: List[dict] = []
        self.puts_handled = 0

    def start(self) -> None:
        self.sim.process(self.run(), name="pilaf-server-%d" % self.index)

    def run(self) -> Generator[Event, None, None]:
        p = self.profile
        while True:
            cqe = yield self.recv_cq.pop()
            yield self.sim.timeout(p.cq_poll_ns)
            client_index, slot = divmod(cqe.wr_id, 1 << 16)
            state = self.clients[client_index]
            # Repost the consumed RECV (the CPU cost the paper calls out
            # as Pilaf's disadvantage against FaRM's polled region).
            yield from self.device.post_recv_timed(
                state["recv_qp"],
                RecvRequest(
                    wr_id=cqe.wr_id,
                    local=(state["recv_mr"], slot * _RECV_SLOT, _RECV_SLOT),
                ),
            )
            # Emulated: no hash-table insert; reply immediately.
            wr = WorkRequest.send(payload=b"\x01", inline=True, signaled=False)
            yield from self.device.post_send_timed(state["recv_qp"], wr)
            self.puts_handled += 1


class PilafCluster(Testbed):
    """An emulated Pilaf deployment (Pilaf-em-OPT)."""

    #: hash-table and extent sizes (addresses only; contents are dummy)
    TABLE_BYTES = 1 << 20
    EXTENT_BYTES = 1 << 20

    def __init__(
        self,
        config: Optional[PilafConfig] = None,
        workload: Optional[Workload] = None,
        profile: HardwareProfile = APT,
        n_clients: int = 51,
        n_client_machines: int = 17,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else PilafConfig()
        self.workload = workload if workload is not None else Workload(
            get_fraction=0.95, value_size=self.config.value_bytes
        )
        super().__init__(profile, n_client_machines, seed)
        self.table = self.server_device.register_memory(self.TABLE_BYTES)
        self.extents = self.server_device.register_memory(self.EXTENT_BYTES)
        self.servers = [
            _PilafServerProcess(s, self.server_device)
            for s in range(self.config.n_server_processes)
        ]
        self._wire(n_clients, seed)

    def _wire(self, n_clients: int, seed: int) -> None:
        cfg = self.config
        for cid in range(n_clients):
            device = self.client_device(cid)
            stream = self.workload.stream(seed=seed * 7_919 + cid)
            client = _PilafClientProcess(cid, device, cfg, stream, seed=cid + 13)
            sproc = self.servers[cid % len(self.servers)]
            server_qp, client.qp = self.connect(
                self.server_device, device, Transport.RC, sproc.recv_cq
            )
            client.table_addr = self.table.addr
            client.table_rkey = self.table.rkey
            client.table_bytes = self.TABLE_BYTES
            client.extents_addr = self.extents.addr
            client.extents_rkey = self.extents.rkey
            client.extents_bytes = self.EXTENT_BYTES
            recv_mr = self.server_device.register_memory(2 * cfg.window * _RECV_SLOT)
            client_index = len(sproc.clients)
            sproc.clients.append({"recv_qp": server_qp, "recv_mr": recv_mr})
            for slot in range(2 * cfg.window):
                self.server_device.post_recv(
                    server_qp,
                    RecvRequest(
                        wr_id=(client_index << 16) | slot,
                        local=(recv_mr, slot * _RECV_SLOT, _RECV_SLOT),
                    ),
                )
            self.clients.append(client)

    # ------------------------------------------------------------------

    def run(self, warmup_ns: float = 30_000.0, measure_ns: float = 150_000.0) -> RunResult:
        meter, latencies = self.run_window(warmup_ns, measure_ns)
        gets = sum(c.gets for c in self.clients)
        probes = sum(c.probes_issued for c in self.clients)
        return collect(
            meter,
            latencies,
            measure_ns,
            avg_probes=(probes / gets) if gets else 0.0,
            puts_handled=float(sum(s.puts_handled for s in self.servers)),
        )
