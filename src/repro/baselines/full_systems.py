"""Full (non-emulated) Pilaf and FaRM-KV: real tables behind real READs.

The paper compares HERD against *emulated* Pilaf/FaRM whose servers
answer instantly (Section 5.1).  These classes go one step further than
the paper could: the cuckoo / hopscotch tables live **inside registered
memory regions**, GET clients traverse the actual bytes with RDMA READs
and decode them client-side (verifying Pilaf's self-verifying-bucket
checksums on every probe), and PUTs run the real insertion code —
relocations, displacements and all — on the server's CPU.

The probe counts and READ sizes are therefore *emergent*, not assumed:
a Pilaf GET probes however many buckets the actual cuckoo placement
requires; a FaRM GET parses the slot its key really landed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.bench.result import RunResult, collect
from repro.hw import APT, HardwareProfile
from repro.kv.cuckoo import BUCKET_BYTES, CuckooFullError, CuckooTable
from repro.kv.hopscotch import HopscotchTable
from repro.sim import Event, Store
from repro.verbs import (
    CompletionQueue,
    RecvRequest,
    Testbed,
    Transport,
    WorkRequest,
)
from repro.workloads.ycsb import Workload, keyhash, value_for

_RECV_SLOT = 40 + 2048
#: CPU cost of decoding + checksumming one fetched bucket client-side
_PARSE_NS = 20.0


# ---------------------------------------------------------------------------
# Pilaf, for real
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PilafFullConfig:
    value_bytes: int = 32
    n_buckets: int = 2 ** 14
    extent_bytes: int = 1 << 22
    window: int = 4
    n_server_processes: int = 6


class _PilafFullClient:
    """One client process traversing the real cuckoo table with READs."""

    def __init__(self, cid, device, config, stream, schema: CuckooTable) -> None:
        self.cid = cid
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.stream = stream
        #: geometry-only view of the server's table (hash functions and
        #: layout constants; never its data)
        self.schema = schema
        self.qp = None
        self.table_addr = 0
        self.table_rkey = 0
        self.extents_addr = 0
        self.extents_rkey = 0
        self.sink = device.register_memory(config.window * 4096)
        self.recv_mr = device.register_memory(2 * config.window * _RECV_SLOT)
        self._read_done = [Store(self.sim) for _ in range(config.window)]
        self._resp_done = [Store(self.sim) for _ in range(config.window)]
        self.completed_hook = None
        self.gets = 0
        self.get_hits = 0
        self.get_misses = 0
        self.wrong_values = 0
        self.puts = 0
        self.probes_issued = 0
        self.torn_reads = 0

    def start(self) -> None:
        self.sim.process(self._dispatch_sends(), name="pilaff-c%d-scq" % self.cid)
        self.sim.process(self._dispatch_recvs(), name="pilaff-c%d-rcq" % self.cid)
        for lane in range(self.config.window):
            self.sim.process(self._lane(lane), name="pilaff-c%d-l%d" % (self.cid, lane))

    def _dispatch_sends(self) -> Generator[Event, None, None]:
        while True:
            cqe = yield self.qp.send_cq.pop()
            self._read_done[cqe.wr_id].put(cqe)

    def _dispatch_recvs(self) -> Generator[Event, None, None]:
        while True:
            cqe = yield self.qp.recv_cq.pop()
            self._resp_done[cqe.wr_id % self.config.window].put(cqe)

    def _lane(self, lane: int) -> Generator[Event, None, None]:
        while True:
            op = self.stream.next_op()
            started = self.sim.now
            if op.is_get:
                yield from self._get(lane, op)
            else:
                yield from self._put(lane, op.key, op.value)
                self.puts += 1
            if self.completed_hook is not None:
                self.completed_hook(self.sim.now, self.sim.now - started)

    def _read(self, lane: int, raddr: int, rkey: int, length: int, sink_off: int):
        wr = WorkRequest.read(
            raddr=raddr, rkey=rkey, local=(self.sink, sink_off, length), wr_id=lane
        )
        yield from self.device.post_send_timed(self.qp, wr)
        yield self._read_done[lane].get()
        yield self.sim.timeout(self.profile.cq_poll_ns)

    def _get(self, lane: int, op) -> Generator[Event, None, None]:
        key = op.key.ljust(16, b"\x00")
        self.gets += 1
        sink_off = lane * 4096
        for bucket in self.schema.buckets_for(key):
            offset, length = self.schema.bucket_span(bucket)
            parsed = None
            for _attempt in range(3):
                yield from self._read(
                    lane, self.table_addr + offset, self.table_rkey, length, sink_off
                )
                self.probes_issued += 1
                yield self.sim.timeout(_PARSE_NS)
                try:
                    parsed = CuckooTable.parse_bucket(self.sink.read(sink_off, length))
                    break
                except ValueError:
                    # Torn read under a concurrent PUT: the bucket's
                    # checksum failed; re-READ the same bucket.
                    self.torn_reads += 1
            if parsed is None or parsed[0] != key:
                continue
            _key, ptr, vlen = parsed
            span = CuckooTable.EXTENT_HEADER_BYTES + vlen
            yield from self._read(
                lane, self.extents_addr + ptr, self.extents_rkey, span, sink_off + 64
            )
            yield self.sim.timeout(_PARSE_NS)
            value = CuckooTable.parse_extent(self.sink.read(sink_off + 64, span))
            self.get_hits += 1
            if value != value_for(op.item, self.config.value_bytes):
                self.wrong_values += 1
            return
        self.get_misses += 1

    def _put(self, lane: int, key: bytes, value: bytes) -> Generator[Event, None, None]:
        offset = lane * _RECV_SLOT
        yield from self.device.post_recv_timed(
            self.qp, RecvRequest(wr_id=lane, local=(self.recv_mr, offset, _RECV_SLOT))
        )
        payload = key + value
        wr = WorkRequest.send(payload=payload, inline=len(payload) <= 256, signaled=False)
        yield from self.device.post_send_timed(self.qp, wr)
        yield self._resp_done[lane].get()
        yield self.sim.timeout(self.profile.cq_poll_ns)


class _PilafFullServerProcess:
    """A server core executing real cuckoo inserts for PUTs."""

    def __init__(self, index, device, table: CuckooTable) -> None:
        self.index = index
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.table = table
        self.recv_cq = CompletionQueue(self.sim, "pfs%d.rcq" % index)
        self.clients: List[dict] = []
        self.puts_handled = 0
        self.failed_inserts = 0

    def start(self) -> None:
        self.sim.process(self.run(), name="pilaff-server-%d" % self.index)

    def run(self) -> Generator[Event, None, None]:
        p = self.profile
        while True:
            cqe = yield self.recv_cq.pop()
            yield self.sim.timeout(p.cq_poll_ns)
            client_index, slot = divmod(cqe.wr_id, 1 << 16)
            state = self.clients[client_index]
            data = state["recv_mr"].read(slot * _RECV_SLOT, cqe.byte_len)
            key, value = data[:16], data[16:]
            try:
                self.table.put(key, value)
                status = b"\x01"
            except CuckooFullError:
                self.failed_inserts += 1
                status = b"\x00"
            # Real insertion work: each touched bucket is a random access.
            yield self.sim.timeout(self.table.last_op_accesses * p.dram_ns)
            yield from self.device.post_recv_timed(
                state["recv_qp"],
                RecvRequest(
                    wr_id=cqe.wr_id,
                    local=(state["recv_mr"], slot * _RECV_SLOT, _RECV_SLOT),
                ),
            )
            wr = WorkRequest.send(payload=status, inline=True, signaled=False)
            yield from self.device.post_send_timed(state["recv_qp"], wr)
            self.puts_handled += 1


class PilafFullCluster(Testbed):
    """Pilaf with its real cuckoo table resident in server memory."""

    def __init__(
        self,
        config: Optional[PilafFullConfig] = None,
        workload: Optional[Workload] = None,
        profile: HardwareProfile = APT,
        n_clients: int = 51,
        n_client_machines: int = 17,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else PilafFullConfig()
        self.workload = workload if workload is not None else Workload(
            get_fraction=0.95, value_size=self.config.value_bytes
        )
        super().__init__(profile, n_client_machines, seed)
        n_buckets = 1 << (self.config.n_buckets - 1).bit_length()
        self.table_mr = self.server_device.register_memory(n_buckets * BUCKET_BYTES)
        self.extents_mr = self.server_device.register_memory(self.config.extent_bytes)
        #: the real table, living inside the registered regions
        self.table = CuckooTable(
            n_buckets=self.config.n_buckets,
            table_buffer=self.table_mr.buf,
            extent_buffer=self.extents_mr.buf,
            seed=seed,
        )
        self.servers = [
            _PilafFullServerProcess(s, self.server_device, self.table)
            for s in range(self.config.n_server_processes)
        ]
        self._wire(n_clients, seed)

    def _wire(self, n_clients: int, seed: int) -> None:
        cfg = self.config
        for cid in range(n_clients):
            device = self.client_device(cid)
            stream = self.workload.stream(seed=seed * 6_700_417 + cid)
            client = _PilafFullClient(cid, device, cfg, stream, self.table)
            sproc = self.servers[cid % len(self.servers)]
            server_qp, client.qp = self.connect(
                self.server_device, device, Transport.RC, sproc.recv_cq
            )
            client.table_addr = self.table_mr.addr
            client.table_rkey = self.table_mr.rkey
            client.extents_addr = self.extents_mr.addr
            client.extents_rkey = self.extents_mr.rkey
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

    def preload(self, items: range) -> None:
        for item in items:
            self.table.put(keyhash(item), value_for(item, self.config.value_bytes))

    def run(self, warmup_ns: float = 30_000.0, measure_ns: float = 150_000.0) -> RunResult:
        meter, latencies = self.run_window(warmup_ns, measure_ns)
        gets = sum(c.gets for c in self.clients)
        probes = sum(c.probes_issued for c in self.clients)
        return collect(
            meter,
            latencies,
            measure_ns,
            avg_probes=(probes / gets) if gets else 0.0,
            get_misses=float(sum(c.get_misses for c in self.clients)),
            wrong_values=float(sum(c.wrong_values for c in self.clients)),
            torn_reads=float(sum(c.torn_reads for c in self.clients)),
            failed_inserts=float(sum(s.failed_inserts for s in self.servers)),
        )


# ---------------------------------------------------------------------------
# FaRM-KV, for real
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarmFullConfig:
    value_bytes: int = 32
    #: hopscotch cannot always keep its neighborhood invariant past
    #: ~50% occupancy without a resize (which FaRM performs and we do
    #: not), so deployments should size the table generously
    n_slots: int = 2 ** 15
    #: True = values inline in the slots (FaRM-em's default mode);
    #: False = out-of-table values, fetched with a second READ (VAR)
    inline_values: bool = True
    extent_bytes: int = 1 << 22
    window: int = 4
    n_server_processes: int = 6


class _FarmFullClient:
    """One client process READing real hopscotch neighborhoods."""

    def __init__(self, cid, device, config, stream, schema: HopscotchTable) -> None:
        self.cid = cid
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.stream = stream
        self.schema = schema
        self.read_qp = None
        self.put_qp = None
        self.table_addr = 0
        self.table_rkey = 0
        self.extents_addr = 0
        self.extents_rkey = 0
        self.put_raddr = 0
        self.put_rkey = 0
        self.put_slot_bytes = 0
        self.sink = device.register_memory(config.window * 8192)
        self.ack_mr = device.register_memory(64 * config.window)
        self.ack_mr.on_write = lambda off, ln: self._ack_done[off // 64].put(off)
        self._read_done = [Store(self.sim) for _ in range(config.window)]
        self._ack_done = [Store(self.sim) for _ in range(config.window)]
        self.completed_hook = None
        self.gets = 0
        self.get_hits = 0
        self.get_misses = 0
        self.wrong_values = 0
        self.puts = 0

    def start(self) -> None:
        self.sim.process(self._dispatch_reads(), name="farmf-c%d-scq" % self.cid)
        for lane in range(self.config.window):
            self.sim.process(self._lane(lane), name="farmf-c%d-l%d" % (self.cid, lane))

    def _dispatch_reads(self) -> Generator[Event, None, None]:
        while True:
            cqe = yield self.read_qp.send_cq.pop()
            self._read_done[cqe.wr_id].put(cqe)

    def _lane(self, lane: int) -> Generator[Event, None, None]:
        while True:
            op = self.stream.next_op()
            started = self.sim.now
            if op.is_get:
                yield from self._get(lane, op)
            else:
                yield from self._put(lane, op.key, op.value)
                self.puts += 1
            if self.completed_hook is not None:
                self.completed_hook(self.sim.now, self.sim.now - started)

    def _read(self, lane: int, raddr: int, length: int, sink_off: int, rkey=None):
        wr = WorkRequest.read(
            raddr=raddr, rkey=self.table_rkey if rkey is None else rkey,
            local=(self.sink, sink_off, length), wr_id=lane,
        )
        yield from self.device.post_send_timed(self.read_qp, wr)
        yield self._read_done[lane].get()
        yield self.sim.timeout(self.profile.cq_poll_ns)

    def _get(self, lane: int, op) -> Generator[Event, None, None]:
        key = op.key.ljust(16, b"\x00")
        self.gets += 1
        schema = self.schema
        home = schema.home_of(key)
        slot_bytes = schema.slot_bytes
        sink_off = lane * 8192
        first = min(schema.NEIGHBORHOOD, schema.n_slots - home)
        yield from self._read(
            lane, self.table_addr + home * slot_bytes, first * slot_bytes, sink_off
        )
        data = self.sink.read(sink_off, first * slot_bytes)
        if first < schema.NEIGHBORHOOD:
            # The neighborhood wraps the end of the table: second READ.
            rest = schema.NEIGHBORHOOD - first
            yield from self._read(
                lane, self.table_addr, rest * slot_bytes, sink_off + first * slot_bytes
            )
            data += self.sink.read(sink_off + first * slot_bytes, rest * slot_bytes)
        yield self.sim.timeout(_PARSE_NS)
        parsed = schema.parse_neighborhood(key, data)
        if parsed is None:
            self.get_misses += 1
            return
        value, ptr = parsed
        if not self.config.inline_values:
            # VAR mode: follow the real out-of-table pointer.
            vlen = self.config.value_bytes
            yield from self._read(
                lane, self.extents_addr + ptr, vlen,
                sink_off + schema.NEIGHBORHOOD * slot_bytes,
                rkey=self.extents_rkey,
            )
            value = self.sink.read(
                sink_off + schema.NEIGHBORHOOD * slot_bytes, vlen
            )
        self.get_hits += 1
        if value != value_for(op.item, self.config.value_bytes):
            self.wrong_values += 1

    def _put(self, lane: int, key: bytes, value: bytes) -> Generator[Event, None, None]:
        payload = key + value
        raddr = self.put_raddr + lane * self.put_slot_bytes
        wr = WorkRequest.write(
            raddr=raddr, rkey=self.put_rkey,
            payload=payload, inline=len(payload) <= 256, signaled=False,
            local=None if len(payload) <= 256 else (self.sink, 0, len(payload)),
        )
        yield from self.device.post_send_timed(self.put_qp, wr)
        yield self._ack_done[lane].get()
        yield self.sim.timeout(4 * self.profile.poll_check_ns)


class _FarmFullServerProcess:
    """A server core running real hopscotch inserts for PUTs."""

    def __init__(self, index, device, table: HopscotchTable) -> None:
        self.index = index
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.table = table
        self.arrivals = Store(self.sim)
        self.clients: List[dict] = []
        self.puts_handled = 0
        self.failed_inserts = 0

    def start(self) -> None:
        self.sim.process(self.run(), name="farmf-server-%d" % self.index)

    def run(self) -> Generator[Event, None, None]:
        from repro.kv.hopscotch import HopscotchFullError

        p = self.profile
        while True:
            client_index, lane, data = yield self.arrivals.get()
            yield self.sim.timeout(4 * p.poll_check_ns)
            key, value = data[:16], data[16:]
            displacements_before = self.table.displacements
            try:
                self.table.put(key, value)
                status = b"\x01"
            except HopscotchFullError:
                self.failed_inserts += 1
                status = b"\x00"
            # Neighborhood scan + any displacements: random accesses.
            accesses = 1 + (self.table.displacements - displacements_before)
            yield self.sim.timeout(accesses * p.dram_ns)
            state = self.clients[client_index]
            wr = WorkRequest.write(
                raddr=state["ack_addr"] + lane * 64, rkey=state["ack_rkey"],
                payload=status, inline=True, signaled=False,
            )
            yield from self.device.post_send_timed(state["qp"], wr)
            self.puts_handled += 1


class FarmFullCluster(Testbed):
    """FaRM-KV with its real hopscotch table resident in server memory."""

    PUT_SLOT = 2048

    def __init__(
        self,
        config: Optional[FarmFullConfig] = None,
        workload: Optional[Workload] = None,
        profile: HardwareProfile = APT,
        n_clients: int = 51,
        n_client_machines: int = 17,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else FarmFullConfig()
        self.workload = workload if workload is not None else Workload(
            get_fraction=0.95, value_size=self.config.value_bytes
        )
        super().__init__(profile, n_client_machines, seed)
        n_slots = 1 << (self.config.n_slots - 1).bit_length()
        inline = self.config.inline_values
        slot_bytes = (20 + self.config.value_bytes) if inline else 24
        self.table_mr = self.server_device.register_memory(n_slots * slot_bytes)
        self.extents_mr = None
        extent_buffer = None
        if not inline:
            self.extents_mr = self.server_device.register_memory(
                self.config.extent_bytes
            )
            extent_buffer = self.extents_mr.buf
        self.table = HopscotchTable(
            n_slots=self.config.n_slots,
            value_capacity=self.config.value_bytes,
            inline=inline,
            table_buffer=self.table_mr.buf,
            extent_buffer=extent_buffer,
        )
        self.servers = [
            _FarmFullServerProcess(s, self.server_device, self.table)
            for s in range(self.config.n_server_processes)
        ]
        lanes = n_clients * self.config.window
        self.put_buffers = self.server_device.register_memory(lanes * self.PUT_SLOT)
        self.put_buffers.on_write = self._put_landed
        self._wire(n_clients, seed)

    def _wire(self, n_clients: int, seed: int) -> None:
        cfg = self.config
        for cid in range(n_clients):
            device = self.client_device(cid)
            stream = self.workload.stream(seed=seed * 15_485_863 + cid)
            client = _FarmFullClient(cid, device, cfg, stream, self.table)
            sproc = self.servers[cid % len(self.servers)]
            # _put_landed turns a cid back into this index arithmetically
            assert len(sproc.clients) == cid // len(self.servers)
            _s_read, client.read_qp = self.connect(
                self.server_device, device, Transport.RC
            )
            s_put, client.put_qp = self.connect(
                self.server_device, device, Transport.UC
            )
            client.table_addr = self.table_mr.addr
            client.table_rkey = self.table_mr.rkey
            if self.extents_mr is not None:
                client.extents_addr = self.extents_mr.addr
                client.extents_rkey = self.extents_mr.rkey
            client.put_raddr = self.put_buffers.addr + cid * cfg.window * self.PUT_SLOT
            client.put_rkey = self.put_buffers.rkey
            client.put_slot_bytes = self.PUT_SLOT
            sproc.clients.append(
                {"qp": s_put, "ack_addr": client.ack_mr.addr, "ack_rkey": client.ack_mr.rkey}
            )
            self.clients.append(client)

    def _put_landed(self, offset: int, length: int) -> None:
        lane_global = offset // self.PUT_SLOT
        cid, lane = divmod(lane_global, self.config.window)
        sproc = self.servers[cid % len(self.servers)]
        data = self.put_buffers.read(offset, length)
        sproc.arrivals.put((cid // len(self.servers), lane, data))

    def preload(self, items: range) -> None:
        for item in items:
            self.table.put(keyhash(item), value_for(item, self.config.value_bytes))

    def run(self, warmup_ns: float = 30_000.0, measure_ns: float = 150_000.0) -> RunResult:
        meter, latencies = self.run_window(warmup_ns, measure_ns)
        return collect(
            meter,
            latencies,
            measure_ns,
            get_misses=float(sum(c.get_misses for c in self.clients)),
            wrong_values=float(sum(c.wrong_values for c in self.clients)),
            failed_inserts=float(sum(s.failed_inserts for s in self.servers)),
        )
