"""FaRM-em and FaRM-em-VAR: the emulated FaRM-KV comparison (Section 5.1.2).

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

As with Pilaf, the emulation omits the backing hash table: the server
answers instantly, and the GET targets are address arithmetic over a
dummy table region.  Each client process pipelines ``window``
operations over one RC QP (READs) plus one UC QP (the PUT path), so
the server holds 2 * NC connected QPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.bench.result import RunResult, collect
from repro.hw import APT, HardwareProfile
from repro.kv.hashing import hash_key
from repro.sim import Event, Store
from repro.verbs import QueuePair, RdmaDevice, Testbed, Transport, WorkRequest
from repro.workloads.ycsb import Workload, WorkloadStream

NEIGHBORHOOD = 6
POINTER_BYTES = 8


@dataclass(frozen=True)
class FarmConfig:
    key_bytes: int = 16
    value_bytes: int = 32
    #: True = values inline in the hash table (FaRM-em);
    #: False = out-of-table values behind pointers (FaRM-em-VAR)
    inline_values: bool = True
    #: operations each client process keeps in flight
    window: int = 4
    n_server_processes: int = 6

    @property
    def neighborhood_read_bytes(self) -> int:
        if self.inline_values:
            return NEIGHBORHOOD * (self.key_bytes + self.value_bytes)
        return NEIGHBORHOOD * (self.key_bytes + POINTER_BYTES)


class _FarmClientProcess:
    """A client process: window lanes pipelined over shared QPs."""

    def __init__(
        self,
        cid: int,
        device: RdmaDevice,
        config: FarmConfig,
        stream: WorkloadStream,
    ) -> None:
        self.cid = cid
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.stream = stream
        self.read_qp: Optional[QueuePair] = None   # RC: GETs
        self.put_qp: Optional[QueuePair] = None    # UC: PUT writes
        self.table_addr = 0
        self.table_rkey = 0
        self.table_bytes = 0
        self.put_raddr = 0       # base of this process's buffer slots
        self.put_rkey = 0
        self.put_slot_bytes = 0
        self.sink = device.register_memory(config.window * 8192)
        self._staging = device.register_memory(config.window * 2048)
        #: server PUT acknowledgements land here, one word per lane
        self.ack_mr = device.register_memory(64 * config.window)
        self.ack_mr.on_write = self._ack_landed
        self._read_done = [Store(self.sim) for _ in range(config.window)]
        self._ack_done = [Store(self.sim) for _ in range(config.window)]
        self.completed_hook = None
        self.gets = 0
        self.puts = 0

    def start(self) -> None:
        self.sim.process(self._dispatch_reads(), name="farm-c%d-scq" % self.cid)
        for lane in range(self.config.window):
            self.sim.process(self._lane(lane), name="farm-c%d-l%d" % (self.cid, lane))

    def _ack_landed(self, offset: int, _length: int) -> None:
        self._ack_done[offset // 64].put(offset)

    def _dispatch_reads(self) -> Generator[Event, None, None]:
        while True:
            cqe = yield self.read_qp.send_cq.pop()
            self._read_done[cqe.wr_id].put(cqe)

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

    def _get(self, lane: int, key: bytes) -> Generator[Event, None, None]:
        cfg = self.config
        span = cfg.neighborhood_read_bytes
        home = hash_key(key) % max(1, self.table_bytes - span)
        wr = WorkRequest.read(
            raddr=self.table_addr + home,
            rkey=self.table_rkey,
            local=(self.sink, lane * 8192, span),
            wr_id=lane,
        )
        yield from self.device.post_send_timed(self.read_qp, wr)
        yield self._read_done[lane].get()
        yield self.sim.timeout(self.profile.cq_poll_ns)
        if not cfg.inline_values:
            # VAR mode: follow the out-of-table pointer with a 2nd READ.
            offset = hash_key(key, 3) % max(1, self.table_bytes - cfg.value_bytes)
            wr = WorkRequest.read(
                raddr=self.table_addr + offset,
                rkey=self.table_rkey,
                local=(self.sink, lane * 8192 + span, cfg.value_bytes),
                wr_id=lane,
            )
            yield from self.device.post_send_timed(self.read_qp, wr)
            yield self._read_done[lane].get()
            yield self.sim.timeout(self.profile.cq_poll_ns)

    def _put(self, lane: int, key: bytes, value: bytes) -> Generator[Event, None, None]:
        payload = key + value
        raddr = self.put_raddr + lane * self.put_slot_bytes
        if len(payload) <= self.profile.max_inline:
            wr = WorkRequest.write(
                raddr=raddr, rkey=self.put_rkey,
                payload=payload, inline=True, signaled=False,
            )
        else:
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
    """A server core polling its clients' PUT circular buffers."""

    def __init__(self, index: int, device: RdmaDevice) -> None:
        self.index = index
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.arrivals = Store(self.sim)
        #: per assigned client process: qp (UC back to client), ack info
        self.clients: List[dict] = []
        self.puts_handled = 0

    def start(self) -> None:
        self.sim.process(self.run(), name="farm-server-%d" % self.index)

    def run(self) -> Generator[Event, None, None]:
        p = self.profile
        while True:
            client_index, lane = yield self.arrivals.get()
            # Poll cost of spotting the new request in the buffer.
            yield self.sim.timeout(4 * p.poll_check_ns)
            state = self.clients[client_index]
            # Emulated: no hash-table update; notify with a tiny WRITE.
            wr = WorkRequest.write(
                raddr=state["ack_addr"] + lane * 64, rkey=state["ack_rkey"],
                payload=b"\x01", inline=True, signaled=False,
            )
            yield from self.device.post_send_timed(state["qp"], wr)
            self.puts_handled += 1


class FarmCluster(Testbed):
    """An emulated FaRM-KV deployment (FaRM-em / FaRM-em-VAR)."""

    TABLE_BYTES = 1 << 21
    PUT_SLOT = 2048

    def __init__(
        self,
        config: Optional[FarmConfig] = None,
        workload: Optional[Workload] = None,
        profile: HardwareProfile = APT,
        n_clients: int = 51,
        n_client_machines: int = 17,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else FarmConfig()
        self.workload = workload if workload is not None else Workload(
            get_fraction=0.95, value_size=self.config.value_bytes
        )
        super().__init__(profile, n_client_machines, seed)
        self.table = self.server_device.register_memory(self.TABLE_BYTES)
        self.servers = [
            _FarmServerProcess(s, self.server_device)
            for s in range(self.config.n_server_processes)
        ]
        lanes = n_clients * self.config.window
        self.put_buffers = self.server_device.register_memory(
            max(lanes, 1) * self.PUT_SLOT
        )
        self.put_buffers.on_write = self._put_landed
        self._wire(n_clients, seed)

    def _wire(self, n_clients: int, seed: int) -> None:
        cfg = self.config
        for cid in range(n_clients):
            device = self.client_device(cid)
            stream = self.workload.stream(seed=seed * 104_729 + cid)
            client = _FarmClientProcess(cid, device, cfg, stream)
            sproc = self.servers[cid % len(self.servers)]
            # _put_landed turns a cid back into this index arithmetically
            assert len(sproc.clients) == cid // len(self.servers)
            # RC pair for READs.
            _s_read, client.read_qp = self.connect(
                self.server_device, device, Transport.RC
            )
            # UC pair for the PUT path (both directions).
            s_put, client.put_qp = self.connect(
                self.server_device, device, Transport.UC
            )
            client.table_addr = self.table.addr
            client.table_rkey = self.table.rkey
            client.table_bytes = self.TABLE_BYTES
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

    def _put_landed(self, offset: int, _length: int) -> None:
        lane_global, cfg = offset // self.PUT_SLOT, self.config
        cid, lane = divmod(lane_global, cfg.window)
        sproc = self.servers[cid % len(self.servers)]
        sproc.arrivals.put((cid // len(self.servers), lane))

    # ------------------------------------------------------------------

    def run(self, warmup_ns: float = 30_000.0, measure_ns: float = 150_000.0) -> RunResult:
        meter, latencies = self.run_window(warmup_ns, measure_ns)
        return collect(
            meter,
            latencies,
            measure_ns,
            puts_handled=float(sum(s.puts_handled for s in self.servers)),
            read_bytes_per_get=float(self.config.neighborhood_read_bytes),
        )
