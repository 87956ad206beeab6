"""The SEND/SEND HERD variant (Section 5.5).

HERD's WRITE-based request path requires the server to poll one request
region slot set per client, and each connected UC QP holds responder
state in the NIC. Past a few hundred clients both start to hurt.  The
paper's proposed fix: switch requests to SENDs over Unreliable
Datagram.  UD QPs are unconnected, so the *entire* client population
shares NS server-side QPs — the design "should scale up to many
thousands of clients, while still outperforming an RDMA READ-based
architecture", at a measured cost of 4-5 Mops next to the WRITE/SEND
hybrid (Figure 5).

This module implements that variant end to end against the same MICA
backend: clients SEND requests (keyhash + optional value) to the UD QP
of the owning server process; the server pre-posts RECV rings, executes
the operation, and responds with the usual unsignaled UD SEND.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, List, Optional, Tuple

from repro.bench.result import RunResult, collect
from repro.hw import APT, HardwareProfile
from repro.kv.mica import MicaCache
from repro.sim import Event, Simulator
from repro.verbs import (
    CompletionQueue,
    QueuePair,
    RdmaDevice,
    RecvRequest,
    StagingRing,
    Testbed,
    Transport,
    WorkRequest,
)
from repro.workloads.ycsb import Operation, OpType, Workload, WorkloadStream, keyed_values
from repro.herd.config import HerdConfig, partition_of
from repro.herd.wire import (
    GET_MARKER,
    decode_response,
    encode_response,
)

_RECV_SLOT = 40 + 1024 + 32
_GRH = 40

#: request message: 16-byte keyhash | u16 LEN (GET_MARKER for GETs) |
#: u32 reply qpn | value...  (the client's machine comes from the GRH)
_HEADER_BYTES = 16 + 2 + 4


def encode_ud_request(op: Operation, reply_qpn: int) -> bytes:
    length = GET_MARKER if op.op is OpType.GET else len(op.value)
    header = op.key + length.to_bytes(2, "little") + reply_qpn.to_bytes(4, "little")
    if op.op is OpType.GET:
        return header
    return header + op.value


def decode_ud_request(data: bytes) -> Tuple[Operation, int]:
    key = data[:16]
    length = int.from_bytes(data[16:18], "little")
    reply_qpn = int.from_bytes(data[18:22], "little")
    if length == GET_MARKER:
        return Operation(OpType.GET, key, None), reply_qpn
    return Operation(OpType.PUT, key, data[22 : 22 + length]), reply_qpn


class _UdServerProcess:
    """A server core: one UD QP serves requests from *all* clients."""

    RECV_RING = 512

    def __init__(self, index: int, device: RdmaDevice, config: HerdConfig) -> None:
        self.index = index
        self.device = device
        self.sim: Simulator = device.sim
        self.profile = device.profile
        self.config = config
        self.recv_cq = CompletionQueue(self.sim, "uds%d.rcq" % index)
        self.qp: QueuePair = device.create_qp(Transport.UD, recv_cq=self.recv_cq)
        self.recv_mr = device.register_memory(self.RECV_RING * _RECV_SLOT)
        for slot in range(self.RECV_RING):
            device.post_recv(
                self.qp,
                RecvRequest(wr_id=slot, local=(self.recv_mr, slot * _RECV_SLOT, _RECV_SLOT)),
            )
        self.store = MicaCache(config.index_entries, config.log_bytes)
        self._staging = StagingRing(device, 1 << 16)
        self._recvs_since_doorbell = 0
        self.gets = 0
        self.puts = 0
        self.responses = 0

    def start(self) -> None:
        self.sim.process(self.run(), name="herd-ud-server-%d" % self.index)

    def run(self) -> Generator[Event, None, None]:
        p = self.profile
        while True:
            cqe = yield self.recv_cq.pop()
            yield self.sim.timeout(p.cq_poll_ns)
            offset = cqe.wr_id * _RECV_SLOT
            data = self.recv_mr.read(offset + _GRH, cqe.byte_len)
            op, reply_qpn = decode_ud_request(data)
            # Repost the consumed RECV.  The deep RECV ring lets us ring
            # the doorbell only once per batch of 8 reposts — the
            # batched-RECV optimization that keeps the SEND/SEND
            # variant within a few Mops of the hybrid (Section 5.5).
            self.device.post_recv(
                self.qp,
                RecvRequest(wr_id=cqe.wr_id, local=(self.recv_mr, offset, _RECV_SLOT)),
            )
            yield self.sim.timeout(p.post_recv_ns)
            self._recvs_since_doorbell += 1
            if self._recvs_since_doorbell >= 8:
                self._recvs_since_doorbell = 0
                yield self.device.machine.pcie.doorbell()
            if op.op is OpType.GET:
                self.gets += 1
                value = self.store.get(op.key)
            else:
                self.puts += 1
                self.store.put(op.key, op.value)
                value = None
            per_access = (
                p.prefetch_hit_ns if self.config.prefetch else p.dram_ns
            )
            yield self.sim.timeout(self.store.last_op_accesses * per_access)
            payload = encode_response(op.op, value)
            ah = (cqe.src[0], reply_qpn)
            if len(payload) <= p.herd_inline_cutoff:
                wr = WorkRequest.send(payload=payload, inline=True, signaled=False, ah=ah)
            else:
                yield self.sim.timeout(len(payload) / p.memcpy_bytes_per_ns)
                wr = self._staging.send(payload, ah)
                while wr is None:
                    yield self._staging.wait()
                    wr = self._staging.send(payload, ah)
            yield from self.device.post_send_timed(self.qp, wr)
            self.responses += 1


@dataclass
class _Pending:
    op: Operation
    sent_at: float


class _UdClientProcess:
    """A closed-loop client using one UD QP for everything."""

    def __init__(
        self,
        client_id: int,
        device: RdmaDevice,
        config: HerdConfig,
        stream: WorkloadStream,
    ) -> None:
        self.client_id = client_id
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.stream = stream
        self.qp = device.create_qp(Transport.UD)
        self.recv_mr = device.register_memory(2 * config.window * _RECV_SLOT)
        #: un-inlined requests are staged here; a request is a 22 B
        #: header plus a value of up to 1 KiB
        self._staging = StagingRing(device, 2 * config.window * 1024)
        #: filled by the cluster: per server process (machine, qpn)
        self.server_ahs: List[Tuple[str, int]] = []
        self._server_of: Dict[Tuple[str, int], int] = {}
        self._pending: List[Deque[_Pending]] = []
        self._seq = 0
        self.response_hook = None
        self.issued = 0
        self.completed = 0
        self.get_misses = 0
        self.failures = 0

    def start(self) -> None:
        self._pending = [deque() for _ in self.server_ahs]
        self._server_of = {ah: s for s, ah in enumerate(self.server_ahs)}
        self.sim.process(self.run(), name="herd-ud-client-%d" % self.client_id)

    def run(self) -> Generator[Event, None, None]:
        for _ in range(self.config.window):
            yield from self._issue_next()
        while True:
            cqe = yield self.qp.recv_cq.pop()
            yield self.sim.timeout(self.profile.cq_poll_ns)
            self._absorb(cqe)
            yield from self._issue_next()

    def _issue_next(self) -> Generator[Event, None, None]:
        op = self.stream.next_op()
        server = partition_of(op.key, len(self.server_ahs))
        slot = self._seq % (2 * self.config.window)
        self._seq += 1
        yield from self.device.post_recv_timed(
            self.qp,
            RecvRequest(wr_id=server, local=(self.recv_mr, slot * _RECV_SLOT, _RECV_SLOT)),
        )
        payload = encode_ud_request(op, self.qp.qpn)
        ah = self.server_ahs[server]
        if len(payload) <= self.profile.max_inline:
            wr = WorkRequest.send(payload=payload, inline=True, signaled=False, ah=ah)
        else:
            yield self.sim.timeout(len(payload) / self.profile.memcpy_bytes_per_ns)
            wr = self._staging.send(payload, ah)
            while wr is None:
                yield self._staging.wait()
                wr = self._staging.send(payload, ah)
        yield from self.device.post_send_timed(self.qp, wr)
        self._pending[server].append(_Pending(op, self.sim.now))
        self.issued += 1

    def _absorb(self, cqe) -> None:
        # Responses arrive from the server process's UD QP; match FIFO
        # per server (each server process serves this client in order).
        server = self._server_of[cqe.src]
        record = self._pending[server].popleft()
        self.completed += 1
        success, _value = decode_response(record.op.op, self._read_response(cqe))
        if record.op.op is OpType.GET and not success:
            self.get_misses += 1
        elif not success:
            self.failures += 1
        if self.response_hook is not None:
            self.response_hook(record.op, self.sim.now - record.sent_at, success, self.sim.now)

    def _read_response(self, cqe) -> bytes:
        # RECVs are consumed in strict FIFO posting order regardless of
        # sender, and we post one per issue — so the k-th completion's
        # data sits in the buffer posted by the k-th issue.
        slot = (self.completed - 1) % (2 * self.config.window)
        return self.recv_mr.read(slot * _RECV_SLOT + _GRH, cqe.byte_len)


class SendSendHerdCluster(Testbed):
    """HERD with SEND/SEND request-response over UD (Section 5.5)."""

    def __init__(
        self,
        config: Optional[HerdConfig] = None,
        profile: HardwareProfile = APT,
        n_client_machines: int = 17,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else HerdConfig()
        super().__init__(profile, n_client_machines, seed)
        self.servers = [
            _UdServerProcess(s, self.server_device, self.config)
            for s in range(self.config.n_server_processes)
        ]

    def add_clients(self, n: int, workload: Workload) -> None:
        ahs = [("server", s.qp.qpn) for s in self.servers]
        for i in range(n):
            cid = len(self.clients)
            stream = workload.stream(seed=self.seed * 1_000_003 + cid)
            client = _UdClientProcess(cid, self.client_device(cid), self.config, stream)
            client.server_ahs = ahs
            self.clients.append(client)

    def preload(self, items: range, value_size: int) -> None:
        for kh, value in keyed_values(items, value_size):
            self.servers[partition_of(kh, len(self.servers))].store.put(kh, value)

    def attach_meter(self, client, record) -> None:
        client.response_hook = lambda op, latency, success, now: record(now, latency)

    def run(self, warmup_ns: float = 50_000.0, measure_ns: float = 200_000.0) -> RunResult:
        meter, latencies = self.run_window(warmup_ns, measure_ns)
        cache = self.server_device.machine.qp_cache
        return collect(
            meter,
            latencies,
            measure_ns,
            server_qp_cache_hit_rate=cache.hit_rate(),
            get_misses=float(sum(c.get_misses for c in self.clients)),
            rnr_drops=float(sum(s.qp.rnr_drops for s in self.servers)),
        )
