"""FaRM-KV (Section 5.1.2): the paper's emulation and the full system.

FaRM-KV's protocol, as emulated by the paper:

* **GET (inline mode, "FaRM-em")** — one READ of the whole hopscotch
  neighborhood: ``6 * (SK + SV)`` bytes.  The READ size grows with the
  value, which is what bends FaRM's curve in Figure 10.
* **GET (out-of-table mode, "FaRM-em-VAR")** — a ``6 * (SK + SP)`` byte
  neighborhood READ (SP = 8-byte pointer), then a second READ of the
  value: two RTTs.
* **PUT** — the client WRITEs the SK+SV item into a circular buffer at
  the server (over UC, with the paper's optimizations); the server
  polls the buffer and notifies completion with a WRITE back to the
  client, which polls its own memory.

:class:`FarmCluster` is the emulation.  As with Pilaf, it omits the
backing hash table: the server answers instantly, and the GET targets
are address arithmetic over a dummy table region.

:class:`FarmFullCluster` keeps the real hopscotch table (values inline
in its slots, or out-of-table extents in VAR mode) **inside registered
memory**: a GET parses the neighborhood its key really hashes to — two
READs when that neighborhood wraps the table's end — and every PUT runs
the real insert, displacements and all, on the server's CPU.  The two
share one client, one server process and one wiring loop: they differ
only in the GET traversal, the PUT apply step and how the table is
built.

Each client process pipelines ``window`` operations over one RC QP
(READs) plus one UC QP (the PUT path), so the server holds 2 * NC
connected QPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.baselines.pilaf import FULL, OK, PARSE_NS, KvClientProcess, require_positive
from repro.bench.result import RunResult, collect
from repro.hw import APT, HardwareProfile
from repro.kv.hashing import hash_key
from repro.kv.hopscotch import HopscotchFullError, HopscotchTable
from repro.kv.interface import EXTENT_BYTES, KEY_BYTES, padded_key
from repro.sim import Event, Store
from repro.verbs import RdmaDevice, Testbed, Transport, WorkRequest
from repro.workloads.ycsb import Workload, WorkloadStream, keyed_values, value_for

#: SP, the out-of-table pointer the paper's VAR neighborhood READ prices
POINTER_BYTES = 8


@dataclass(frozen=True)
class FarmConfig:
    value_bytes: int = 32
    #: True = values inline in the hash table (FaRM-em);
    #: False = out-of-table values behind pointers (FaRM-em-VAR)
    inline_values: bool = True
    #: operations each client process keeps in flight
    window: int = 4
    n_server_processes: int = 6

    def __post_init__(self) -> None:
        require_positive(self, "value_bytes", "window", "n_server_processes")

    @property
    def neighborhood_read_bytes(self) -> int:
        item = self.value_bytes if self.inline_values else POINTER_BYTES
        return HopscotchTable.NEIGHBORHOOD * (KEY_BYTES + item)


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
    window: int = 4
    n_server_processes: int = 6

    def __post_init__(self) -> None:
        require_positive(
            self, "value_bytes", "n_slots", "window", "n_server_processes"
        )


class _FarmClientProcess(KvClientProcess):
    """A FaRM client: READs over the RC QP, PUT WRITEs over one UC QP
    (``put_qp``), each acknowledged by a WRITE into ``ack_mr``."""

    NAME = "farm"
    SINK_BYTES = 8192

    def __init__(
        self,
        cid: int,
        device: RdmaDevice,
        config: FarmConfig | FarmFullConfig,
        stream: WorkloadStream,
        schema: Optional[HopscotchTable],
    ) -> None:
        super().__init__(cid, device, config, stream, schema)
        self.put_qp = None  # UC: PUT writes
        self.put_raddr = 0  # base of this process's buffer slots
        self.put_rkey = 0
        self.put_slot_bytes = 0
        #: server PUT acknowledgements land here, one word per lane
        self.ack_mr = device.register_memory(64 * config.window)
        self.ack_mr.on_write = self._ack_landed
        self._ack_done = [Store(self.sim) for _ in range(config.window)]

    def _ack_landed(self, offset: int, _length: int) -> None:
        self._ack_done[offset // 64].put(offset)

    def _get_emulated(self, lane: int, op) -> Generator[Event, None, None]:
        """One neighborhood-sized READ at a hashed address over a table
        of dummy bytes (and one value-sized READ in VAR mode)."""
        cfg = self.config
        sink_off = lane * 8192
        span = cfg.neighborhood_read_bytes
        home = hash_key(op.key) % max(1, self.table_bytes - span)
        yield from self._read(
            lane, self.table_addr + home, self.table_rkey, span, sink_off
        )
        if not cfg.inline_values:
            # VAR mode: follow the out-of-table pointer with a 2nd READ.
            offset = hash_key(op.key, 3) % max(1, self.table_bytes - cfg.value_bytes)
            yield from self._read(
                lane, self.table_addr + offset, self.table_rkey, cfg.value_bytes,
                sink_off + span,
            )
        self.gets += 1

    def _get_full(self, lane: int, op) -> Generator[Event, None, None]:
        """READ and parse the key's real neighborhood; in VAR mode,
        follow its extent pointer."""
        key = padded_key(op.key)
        self.gets += 1
        schema = self.schema
        hood = schema.NEIGHBORHOOD
        home = schema.home_of(key)
        slot_bytes = schema.slot_bytes
        sink_off = lane * 8192
        first = min(hood, schema.n_slots - home)
        yield from self._read(
            lane, self.table_addr + home * slot_bytes, self.table_rkey,
            first * slot_bytes, sink_off,
        )
        data = self.sink.read(sink_off, first * slot_bytes)
        if first < hood:
            # The neighborhood wraps the end of the table: second READ.
            rest = hood - first
            yield from self._read(
                lane, self.table_addr, self.table_rkey, rest * slot_bytes,
                sink_off + first * slot_bytes,
            )
            data += self.sink.read(sink_off + first * slot_bytes, rest * slot_bytes)
        yield self.sim.timeout(PARSE_NS)
        parsed = schema.parse_neighborhood(key, data)
        if parsed is None:
            self.get_misses += 1
            return
        value, ptr = parsed
        if not self.config.inline_values:
            # VAR mode: follow the real out-of-table pointer.
            vlen = self.config.value_bytes
            value_off = sink_off + hood * slot_bytes
            yield from self._read(
                lane, self.extents_addr + ptr, self.extents_rkey, vlen, value_off
            )
            value = self.sink.read(value_off, vlen)
        if value != value_for(op.item, self.config.value_bytes):
            self.wrong_values += 1

    def _put(self, lane: int, key: bytes, value: bytes) -> Generator[Event, None, None]:
        payload = key + value
        raddr = self.put_raddr + lane * self.put_slot_bytes
        if len(payload) <= self.profile.max_inline:
            wr = WorkRequest.write(
                raddr=raddr, rkey=self.put_rkey,
                payload=payload, inline=True, signaled=False,
            )
        else:
            # the lane's slot is free again: its last PUT was acked, so
            # the NIC has fetched it
            self._staging.write(lane * 2048, payload)
            wr = WorkRequest.write(
                raddr=raddr, rkey=self.put_rkey,
                local=(self._staging, lane * 2048, len(payload)), signaled=False,
            )
        yield from self.device.post_send_timed(self.put_qp, wr)
        # Wait for the server's completion WRITE to land in our memory.
        yield self._ack_done[lane].get()
        yield self.sim.timeout(4 * self.profile.poll_check_ns)


class _FarmServerProcess:
    """A server core polling its clients' PUT circular buffers.

    ``apply(key, value) -> (reply, accesses)`` is the cluster's PUT
    apply step; each access costs one random DRAM access.
    """

    def __init__(self, index: int, device: RdmaDevice, apply) -> None:
        self.index = index
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.apply = apply
        self.arrivals = Store(self.sim)
        #: per assigned client process: qp (UC back to client), ack info
        self.clients: List[dict] = []
        self.puts_handled = 0

    def start(self) -> None:
        self.sim.process(self.run(), name="farm-server-%d" % self.index)

    def run(self) -> Generator[Event, None, None]:
        p = self.profile
        while True:
            client_index, lane, data = yield self.arrivals.get()
            # Poll cost of spotting the new request in the buffer.
            yield self.sim.timeout(4 * p.poll_check_ns)
            reply, accesses = self.apply(data[:KEY_BYTES], data[KEY_BYTES:])
            if accesses:
                yield self.sim.timeout(accesses * p.dram_ns)
            state = self.clients[client_index]
            wr = WorkRequest.write(
                raddr=state["ack_addr"] + lane * 64, rkey=state["ack_rkey"],
                payload=reply, inline=True, signaled=False,
            )
            yield from self.device.post_send_timed(state["qp"], wr)
            self.puts_handled += 1


class FarmCluster(Testbed):
    """An emulated FaRM-KV deployment (FaRM-em / FaRM-em-VAR)."""

    CONFIG = FarmConfig
    #: a client's workload stream is seeded ``seed * STREAM_SEED + cid``
    STREAM_SEED = 104_729
    #: the dummy table's size (addresses only)
    TABLE_BYTES = 1 << 21
    PUT_SLOT = 2048
    #: the real table and its VAR-mode extents, in the full system
    table: Optional[HopscotchTable] = None
    extents_mr = None

    def __init__(
        self,
        config: FarmConfig | FarmFullConfig | None = None,
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
            _FarmServerProcess(s, self.server_device, self._apply_put)
            for s in range(self.config.n_server_processes)
        ]
        lanes = n_clients * self.config.window
        self.put_buffers = self.server_device.register_memory(
            max(lanes, 1) * self.PUT_SLOT
        )
        self.put_buffers.on_write = self._put_landed
        self._wire(n_clients, seed)

    def _build_table(self) -> None:
        self.table_mr = self.server_device.register_memory(self.TABLE_BYTES)

    def _apply_put(self, key: bytes, value: bytes) -> Tuple[bytes, int]:
        """Emulated: no hash-table update; notify with a tiny WRITE."""
        return OK, 0

    def _wire(self, n_clients: int, seed: int) -> None:
        cfg = self.config
        for cid in range(n_clients):
            device = self.client_device(cid)
            stream = self.workload.stream(seed=seed * self.STREAM_SEED + cid)
            client = _FarmClientProcess(cid, device, cfg, stream, self.table)
            sproc = self.servers[cid % len(self.servers)]
            # _put_landed turns a cid back into this index arithmetically
            assert len(sproc.clients) == cid // len(self.servers)
            # RC pair for READs.
            _s_read, client.qp = self.connect(
                self.server_device, device, Transport.RC
            )
            # UC pair for the PUT path (both directions).
            s_put, client.put_qp = self.connect(
                self.server_device, device, Transport.UC
            )
            client.table_addr, client.table_rkey = self.table_mr.addr, self.table_mr.rkey
            client.table_bytes = self.table_mr.length
            if self.extents_mr is not None:
                client.extents_addr = self.extents_mr.addr
                client.extents_rkey = self.extents_mr.rkey
            client.put_raddr = self.put_buffers.addr + cid * cfg.window * self.PUT_SLOT
            client.put_rkey = self.put_buffers.rkey
            client.put_slot_bytes = self.PUT_SLOT
            sproc.clients.append(
                {
                    "qp": s_put,
                    "ack_addr": client.ack_mr.addr,
                    "ack_rkey": client.ack_mr.rkey,
                }
            )
            self.clients.append(client)

    def _put_landed(self, offset: int, length: int) -> None:
        cid, lane = divmod(offset // self.PUT_SLOT, self.config.window)
        sproc = self.servers[cid % len(self.servers)]
        data = self.put_buffers.read(offset, length)
        sproc.arrivals.put((cid // len(self.servers), lane, data))

    # ------------------------------------------------------------------

    def run(self, warmup_ns: float = 30_000.0, measure_ns: float = 150_000.0) -> RunResult:
        meter, latencies = self.run_window(warmup_ns, measure_ns)
        return collect(meter, latencies, measure_ns, **self._results())

    def _results(self) -> dict:
        """The run's extra result fields."""
        return dict(
            puts_handled=float(sum(s.puts_handled for s in self.servers)),
            read_bytes_per_get=float(self.config.neighborhood_read_bytes),
        )


class FarmFullCluster(FarmCluster):
    """FaRM-KV with its real hopscotch table resident in server memory."""

    CONFIG = FarmFullConfig
    STREAM_SEED = 15_485_863
    #: PUTs the table could not admit
    failed_inserts = 0

    def _build_table(self) -> None:
        cfg = self.config
        n_slots = 1 << (cfg.n_slots - 1).bit_length()
        slot_bytes = HopscotchTable.slot_size(cfg.value_bytes, cfg.inline_values)
        self.table_mr = self.server_device.register_memory(n_slots * slot_bytes)
        if not cfg.inline_values:
            self.extents_mr = self.server_device.register_memory(EXTENT_BYTES)
        self.table = HopscotchTable(
            n_slots=cfg.n_slots,
            value_capacity=cfg.value_bytes,
            inline=cfg.inline_values,
            table_buffer=self.table_mr.buf,
            extent_buffer=None if self.extents_mr is None else self.extents_mr.buf,
        )

    def _apply_put(self, key: bytes, value: bytes) -> Tuple[bytes, int]:
        """The real insert: one neighborhood scan plus any displacements,
        each a random access."""
        displacements_before = self.table.displacements
        try:
            self.table.put(key, value)
            reply = OK
        except HopscotchFullError:
            self.failed_inserts += 1
            reply = FULL
        return reply, 1 + self.table.displacements - displacements_before

    def preload(self, items: range) -> None:
        for key, value in keyed_values(items, self.config.value_bytes):
            self.table.put(key, value)

    def _results(self) -> dict:
        return dict(
            get_misses=float(sum(c.get_misses for c in self.clients)),
            wrong_values=float(sum(c.wrong_values for c in self.clients)),
            failed_inserts=float(self.failed_inserts),
        )
