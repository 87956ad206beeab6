"""Pilaf (Section 5.1.1): the paper's emulation and the full system.

Pilaf's protocol:

* **GET** — the client traverses the server's 3-1 cuckoo hash table
  with RDMA READs: 1.6 bucket READs on average (32-byte buckets), then
  a READ of the value from the extents.  The second candidate bucket is
  read only if the first probe misses — lower throughput than issuing
  both concurrently, but that is the configuration the paper evaluates.
* **PUT** — the client SENDs the SK+SV-byte item to the server, which
  answers with a SEND.

:class:`PilafCluster` is Pilaf-em-OPT.  Following the paper's
methodology it omits Pilaf's backing data structures (the server
answers instantly, giving Pilaf the maximum possible advantage) but
performs every network and NIC step for real.  "OPT" means all of the
paper's optimizations are applied to the messaging legs: inlining and
selective signaling (the READ path needs RC, so the whole QP is RC, as
in Pilaf).

:class:`PilafFullCluster` goes one step further than the paper could:
the cuckoo table lives **inside registered memory regions**, clients
decode the bucket bytes they READ (verifying each bucket's checksum and
re-READing a torn one), and the server's CPU runs the real insertion,
relocations and all, for every PUT.  Its probe counts are emergent, not
assumed, which is what validates the emulation.  The two share one
client, one server process and one wiring loop: they differ only in the
GET traversal, the PUT apply step and how the table is built.

Each client process keeps ``window`` operations in flight, pipelined on
**one** RC queue pair — like Pilaf's asynchronous clients — so the
server holds NC connected QPs, not NC * window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.bench.result import RunResult, collect
from repro.hw import APT, HardwareProfile
from repro.kv.cuckoo import BUCKET_BYTES, CuckooFullError, CuckooTable
from repro.kv.hashing import hash_key
from repro.kv.interface import EXTENT_BYTES, KEY_BYTES, padded_key
from repro.sim import Event, Store
from repro.verbs import (
    CompletionQueue,
    RdmaDevice,
    RecvRequest,
    Testbed,
    Transport,
    WorkRequest,
)
from repro.workloads.ycsb import Workload, WorkloadStream, keyed_values, value_for

_RECV_SLOT = 40 + 2048
#: CPU cost of decoding + checksumming one fetched bucket or
#: neighborhood client-side (the full systems only)
PARSE_NS = 20.0
#: a server's PUT reply: inserted, or the table refused the item
OK, FULL = b"\x01", b"\x00"
#: the emulation's average cuckoo probes per GET, at 75% occupancy
#: (Section 5.1.1); the full system's count is emergent
AVG_PROBES = 1.6


def require_positive(config, *names: str) -> None:
    """Raise ``ValueError`` unless each named field of ``config`` is >= 1."""
    for name in names:
        value = getattr(config, name)
        if not (value >= 1):  # also rejects NaN
            raise ValueError("%s must be >= 1; got %r" % (name, value))


@dataclass(frozen=True)
class PilafConfig:
    value_bytes: int = 32
    #: operations each client process keeps in flight
    window: int = 4
    n_server_processes: int = 6

    def __post_init__(self) -> None:
        require_positive(self, "value_bytes", "window", "n_server_processes")


@dataclass(frozen=True)
class PilafFullConfig:
    value_bytes: int = 32
    n_buckets: int = 2 ** 14
    window: int = 4
    n_server_processes: int = 6

    def __post_init__(self) -> None:
        require_positive(
            self, "value_bytes", "n_buckets", "window", "n_server_processes"
        )


class KvClientProcess:
    """What a Pilaf and a FaRM client share: ``window`` lanes running
    operations back to back, and one-sided READs over one RC QP,
    ``qp``, whose send completions a dispatcher routes to the lanes.

    With a ``schema`` — a geometry-only view of the server's real table
    (hash functions and layout, never its data) — GETs traverse the
    real table (``_get_full``); without one they READ at hashed
    addresses over dummy bytes (``_get_emulated``).
    """

    #: process-name prefix
    NAME = ""
    #: READ landing space per lane
    SINK_BYTES = 4096

    def __init__(
        self,
        cid: int,
        device: RdmaDevice,
        config,  # the system's emulated or full config
        stream: WorkloadStream,
        schema,
    ) -> None:
        self.cid = cid
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.stream = stream
        self.schema = schema
        self._get = self._get_emulated if schema is None else self._get_full
        self.qp = None
        self.table_addr = self.table_rkey = self.table_bytes = 0
        self.extents_addr = self.extents_rkey = 0
        self.sink = device.register_memory(config.window * self.SINK_BYTES)
        self._staging = device.register_memory(config.window * 2048)
        #: per-lane READ completion mailboxes, fed by the dispatcher
        self._read_done = [Store(self.sim) for _ in range(config.window)]
        self.completed_hook = None
        self.gets = 0
        self.puts = 0
        self.get_misses = 0
        self.wrong_values = 0

    def start(self) -> None:
        name = "%s-c%d-" % (self.NAME, self.cid)
        for tag, cq, mailboxes in self._dispatchers():
            self.sim.process(self._dispatch(cq, mailboxes), name=name + tag)
        for lane in range(self.config.window):
            self.sim.process(self._lane(lane), name=name + "l%d" % lane)

    # -- completion routing -------------------------------------------------

    def _dispatchers(self) -> list:
        """(name tag, CQ, per-lane mailboxes) of each dispatcher."""
        return [("scq", self.qp.send_cq, self._read_done)]

    def _dispatch(self, cq, mailboxes: List[Store]) -> Generator[Event, None, None]:
        window = self.config.window
        while True:
            cqe = yield cq.pop()
            mailboxes[cqe.wr_id % window].put(cqe)

    # -- operation lanes -------------------------------------------------------

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

    def _read(
        self, lane: int, raddr: int, rkey: int, length: int, sink_off: int
    ) -> Generator[Event, None, None]:
        wr = WorkRequest.read(
            raddr=raddr, rkey=rkey, local=(self.sink, sink_off, length), wr_id=lane
        )
        yield from self.device.post_send_timed(self.qp, wr)
        yield self._read_done[lane].get()
        yield self.sim.timeout(self.profile.cq_poll_ns)


class _PilafClientProcess(KvClientProcess):
    """A Pilaf client: READs, PUT SENDs and their replies all share the
    one RC QP."""

    NAME = "pilaf"

    def __init__(
        self,
        cid: int,
        device: RdmaDevice,
        config: PilafConfig | PilafFullConfig,
        stream: WorkloadStream,
        seed: int,
        schema: Optional[CuckooTable],
    ) -> None:
        super().__init__(cid, device, config, stream, schema)
        self._rng = random.Random(seed)
        self.extents_bytes = 0
        self.recv_mr = device.register_memory(2 * config.window * _RECV_SLOT)
        #: per-lane PUT reply mailboxes
        self._resp_done = [Store(self.sim) for _ in range(config.window)]
        self.probes_issued = 0
        self.torn_reads = 0

    def _dispatchers(self) -> list:
        return super()._dispatchers() + [("rcq", self.qp.recv_cq, self._resp_done)]

    def _get_emulated(self, lane: int, op) -> Generator[Event, None, None]:
        """1 or 2 bucket READs, averaging :data:`AVG_PROBES`, then the
        value READ — at hashed addresses over a table of dummy bytes."""
        sink_off = lane * 4096
        probes = 2 if self._rng.random() < AVG_PROBES - 1.0 else 1
        for probe in range(probes):
            bucket = hash_key(op.key, probe) % (self.table_bytes // BUCKET_BYTES)
            yield from self._read(
                lane, self.table_addr + bucket * BUCKET_BYTES, self.table_rkey,
                BUCKET_BYTES, sink_off,
            )
            self.probes_issued += 1
        # Follow the pointer: READ the value from the extents.
        value_len = self.config.value_bytes
        offset = hash_key(op.key, 7) % max(1, self.extents_bytes - value_len)
        yield from self._read(
            lane, self.extents_addr + offset, self.extents_rkey, value_len,
            sink_off + 64,
        )
        self.gets += 1

    def _get_full(self, lane: int, op) -> Generator[Event, None, None]:
        """Probe the key's candidate buckets until one holds it, then
        READ and verify its extent."""
        key = padded_key(op.key)
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
                yield self.sim.timeout(PARSE_NS)
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
            yield self.sim.timeout(PARSE_NS)
            value = CuckooTable.parse_extent(self.sink.read(sink_off + 64, span))
            if value != value_for(op.item, self.config.value_bytes):
                self.wrong_values += 1
            return
        self.get_misses += 1

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
            # the lane's slot is free again: its last PUT was answered,
            # so the NIC has fetched it
            self._staging.write(lane * 2048, payload)
            wr = WorkRequest.send(
                local=(self._staging, lane * 2048, len(payload)), signaled=False
            )
        yield from self.device.post_send_timed(self.qp, wr)
        yield self._resp_done[lane].get()
        yield self.sim.timeout(self.profile.cq_poll_ns)


class _PilafServerProcess:
    """A server core handling the PUT path (GETs bypass the CPU).

    ``apply(key, value) -> (reply, accesses)`` is the cluster's PUT
    apply step; each access costs one random DRAM access.
    """

    def __init__(self, index: int, device: RdmaDevice, apply) -> None:
        self.index = index
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.apply = apply
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
            data = state["recv_mr"].read(slot * _RECV_SLOT, cqe.byte_len)
            reply, accesses = self.apply(data[:KEY_BYTES], data[KEY_BYTES:])
            if accesses:
                yield self.sim.timeout(accesses * p.dram_ns)
            # Repost the consumed RECV (the CPU cost the paper calls out
            # as Pilaf's disadvantage against FaRM's polled region).
            yield from self.device.post_recv_timed(
                state["recv_qp"],
                RecvRequest(
                    wr_id=cqe.wr_id,
                    local=(state["recv_mr"], slot * _RECV_SLOT, _RECV_SLOT),
                ),
            )
            wr = WorkRequest.send(payload=reply, inline=True, signaled=False)
            yield from self.device.post_send_timed(state["recv_qp"], wr)
            self.puts_handled += 1


class PilafCluster(Testbed):
    """An emulated Pilaf deployment (Pilaf-em-OPT)."""

    CONFIG = PilafConfig
    #: a client's workload stream is seeded ``seed * STREAM_SEED + cid``
    STREAM_SEED = 7_919
    #: hash-table and extent sizes (addresses only; contents are dummy)
    TABLE_BYTES = 1 << 20
    DUMMY_EXTENT_BYTES = 1 << 20
    #: the real table, in the full system
    table: Optional[CuckooTable] = None

    def __init__(
        self,
        config: PilafConfig | PilafFullConfig | None = None,
        workload: Optional[Workload] = None,
        profile: HardwareProfile = APT,
        n_clients: int = 51,
        n_client_machines: int = 17,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else self.CONFIG()
        self.workload = workload if workload is not None else Workload(
            get_fraction=0.95, value_size=self.config.value_bytes
        )
        super().__init__(profile, n_client_machines, seed)
        self._build_table()
        self.servers = [
            _PilafServerProcess(s, self.server_device, self._apply_put)
            for s in range(self.config.n_server_processes)
        ]
        self._wire(n_clients, seed)

    def _build_table(self) -> None:
        self.table_mr = self.server_device.register_memory(self.TABLE_BYTES)
        self.extents_mr = self.server_device.register_memory(self.DUMMY_EXTENT_BYTES)

    def _apply_put(self, key: bytes, value: bytes) -> Tuple[bytes, int]:
        """Emulated: no hash-table insert; reply immediately."""
        return OK, 0

    def _wire(self, n_clients: int, seed: int) -> None:
        cfg = self.config
        for cid in range(n_clients):
            device = self.client_device(cid)
            stream = self.workload.stream(seed=seed * self.STREAM_SEED + cid)
            client = _PilafClientProcess(cid, device, cfg, stream, cid + 13, self.table)
            sproc = self.servers[cid % len(self.servers)]
            server_qp, client.qp = self.connect(
                self.server_device, device, Transport.RC, sproc.recv_cq
            )
            table, extents = self.table_mr, self.extents_mr
            client.table_addr, client.table_rkey = table.addr, table.rkey
            client.table_bytes = table.length
            client.extents_addr, client.extents_rkey = extents.addr, extents.rkey
            client.extents_bytes = extents.length
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
        return collect(meter, latencies, measure_ns, **self._results())

    def _avg_probes(self) -> float:
        gets = sum(c.gets for c in self.clients)
        probes = sum(c.probes_issued for c in self.clients)
        return (probes / gets) if gets else 0.0

    def _results(self) -> dict:
        """The run's extra result fields."""
        return dict(
            avg_probes=self._avg_probes(),
            puts_handled=float(sum(s.puts_handled for s in self.servers)),
        )


class PilafFullCluster(PilafCluster):
    """Pilaf with its real cuckoo table resident in server memory."""

    CONFIG = PilafFullConfig
    STREAM_SEED = 6_700_417
    #: PUTs the table could not admit
    failed_inserts = 0

    def _build_table(self) -> None:
        cfg = self.config
        n_buckets = 1 << (cfg.n_buckets - 1).bit_length()
        self.table_mr = self.server_device.register_memory(n_buckets * BUCKET_BYTES)
        self.extents_mr = self.server_device.register_memory(EXTENT_BYTES)
        self.table = CuckooTable(
            n_buckets=cfg.n_buckets,
            table_buffer=self.table_mr.buf,
            extent_buffer=self.extents_mr.buf,
            seed=self.seed,
        )

    def _apply_put(self, key: bytes, value: bytes) -> Tuple[bytes, int]:
        """The real insert; each touched bucket is a random access."""
        try:
            self.table.put(key, value)
            reply = OK
        except CuckooFullError:
            self.failed_inserts += 1
            reply = FULL
        return reply, self.table.last_op_accesses

    def preload(self, items: range) -> None:
        for key, value in keyed_values(items, self.config.value_bytes):
            self.table.put(key, value)

    def _results(self) -> dict:
        return dict(
            avg_probes=self._avg_probes(),
            get_misses=float(sum(c.get_misses for c in self.clients)),
            wrong_values=float(sum(c.wrong_values for c in self.clients)),
            torn_reads=float(sum(c.torn_reads for c in self.clients)),
            failed_inserts=float(self.failed_inserts),
        )
