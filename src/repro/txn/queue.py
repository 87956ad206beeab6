"""A remote FIFO queue built both ways: one-sided verbs vs server RPC.

The queue is the ISSUE's "remote data structure on top of the txn
substrate" — the design contrast the paper's Section 2 sets up:

* **One-sided** — the queue lives in a registered ring on the server::

      [ head u64 ][ tail u64 ][ (state u64, item u64) * capacity ]

  Enqueue claims a ticket by CAS-incrementing ``tail`` (retry loop) or
  — with ``ticket_mode="faa"`` — by a single ``ATOMIC_FETCH_ADD`` that
  can never lose a race, then WRITEs ``(ticket+1, item)`` into its
  slot.  Dequeue READs head/tail, CASes ``head`` forward to claim a
  ticket, and spin-READs the slot until the enqueuer's WRITE lands.
  Every op is multiple RTTs and contended CAS retries burn more; the
  FAA mode shows why a fetch-style primitive beats compare-style under
  contention.
* **RPC** — clients send ``Q_ENQ``/``Q_DEQ`` to the partition-0 server
  process, whose Python deque *is* the queue: one RTT per op, no
  retries, serialised by the server loop.

:class:`TxnQueueCluster.run` audits exactly-once conservation: every
dequeued (ticket, item) pair was enqueued, no ticket is dequeued
twice, and per-ticket items match — FIFO order is the ticket order by
construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.bench.result import RunResult, collect
from repro.faults.rng import child_rng
from repro.hw import APT, HardwareProfile
from repro.sim import Event, LatencyRecorder, RateMeter, Store
from repro.txn import wire
from repro.txn.cluster import DATAPLANES
from repro.txn.client import OneSidedClient, RpcChannel
from repro.txn.server import TxnServerProcess
from repro.txn.store import TxnPartitionStore
from repro.verbs import QueuePair, RdmaDevice, Testbed, Transport, WorkRequest

_U64 = struct.Struct("<Q")
_SLOT = struct.Struct("<QQ")

HEAD_OFF = 0
TAIL_OFF = 8
RING_OFF = 16
SLOT_BYTES = 16


@dataclass(frozen=True)
class QueueConfig:
    dataplane: str = "onesided"
    #: one-sided ticket acquisition: "cas" retry loop or "faa" fetch-add
    ticket_mode: str = "cas"
    #: ops each client attempts (half enqueues, alternating)
    ops_per_client: int = 40
    capacity: int = 4096
    rpc_timeout_ns: float = 30_000.0
    backoff_ns: float = 1_000.0

    def __post_init__(self) -> None:
        if self.dataplane not in DATAPLANES:
            raise ValueError(
                "unknown dataplane %r; expected one of %s"
                % (self.dataplane, ", ".join(DATAPLANES))
            )
        if self.ticket_mode not in ("cas", "faa"):
            raise ValueError("ticket_mode must be 'cas' or 'faa'")
        # ``not (x >= lo)`` also rejects NaN
        for name in ("ops_per_client", "capacity"):
            if not (getattr(self, name) >= 1):
                raise ValueError("%s must be >= 1; got %r" % (name, getattr(self, name)))
        if not (self.rpc_timeout_ns > 0):
            raise ValueError("rpc_timeout_ns must be > 0; got %r" % (self.rpc_timeout_ns,))
        if not (self.backoff_ns >= 0):
            raise ValueError("backoff_ns must be >= 0; got %r" % (self.backoff_ns,))


@dataclass
class QueueReport:
    dataplane: str
    ticket_mode: str
    result: RunResult
    enqueued: int
    dequeued: int
    #: ticket-claim CAS attempts that lost the race (one-sided only);
    #: enq_retries stays 0 in FAA mode — a fetch-add cannot lose
    enq_retries: int
    deq_retries: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (
            "queue[%s/%s]: %.3f Mops, %d enq, %d deq, %d+%d cas retries, ok=%s"
            % (self.dataplane, self.ticket_mode, self.result.mops,
               self.enqueued, self.dequeued, self.enq_retries,
               self.deq_retries, self.ok)
        )


class _QueueClient(OneSidedClient):
    """One closed-loop queue client, on either dataplane."""

    NAME = "q"

    def __init__(self, cid: int, device: RdmaDevice, config: QueueConfig, rng) -> None:
        self.cid = cid
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.rng = rng
        self.enqueues: List[Tuple[int, int]] = []  # (ticket, item)
        self.dequeues: List[Tuple[int, int]] = []
        self.enq_retries = 0
        self.deq_retries = 0
        self.completed_hook = None
        self._seq = 0
        # RPC plumbing (wired by the cluster when dataplane == "rpc")
        self.rpc: Optional[RpcChannel] = None
        # one-sided plumbing
        self.rc_qp: Optional[QueuePair] = None
        self.ring_addr = 0
        self.ring_rkey = 0
        #: READs land at 0, atomics' old values at 32
        self.sink = device.register_memory(64)
        self._atomic_off = 32
        self._cq_inbox: Store = Store(self.sim)

    def run(self) -> Generator[Event, None, None]:
        cfg = self.config
        for i in range(cfg.ops_per_client):
            started = self.sim.now
            if i % 2 == 0:
                item = (self.cid << 32) | i
                if self.rpc is not None:
                    yield from self._enqueue_rpc(item)
                else:
                    yield from self._enqueue_onesided(item)
            else:
                if self.rpc is not None:
                    yield from self._dequeue_rpc()
                else:
                    yield from self._dequeue_onesided()
            if self.completed_hook is not None:
                self.completed_hook(self.sim.now, self.sim.now - started)

    # -- RPC ---------------------------------------------------------------

    def _enqueue_rpc(self, item: int) -> Generator[Event, None, None]:
        self._seq += 1
        res = yield from self.rpc.call(
            {0: (wire.Q_ENQ, wire.encode_u64(item))}, self._seq
        )
        _status, body = res[0]
        self.enqueues.append((wire.decode_u64(body), item))

    def _dequeue_rpc(self) -> Generator[Event, None, None]:
        attempts = 0
        while True:
            self._seq += 1
            res = yield from self.rpc.call({0: (wire.Q_DEQ, b"")}, self._seq)
            status, body = res[0]
            if status == wire.ST_OK:
                self.dequeues.append(
                    (wire.decode_u64(body, 0), wire.decode_u64(body, 8))
                )
                return
            attempts += 1
            if attempts >= 8:
                return  # nothing to take; bounded politeness
            yield self.sim.timeout(
                self.config.backoff_ns * (0.5 + self.rng.random())
            )

    # -- one-sided ---------------------------------------------------------

    def _read(self, raddr: int, length: int) -> Generator[Event, None, bytes]:
        wr = WorkRequest.read(
            raddr=raddr, rkey=self.ring_rkey, local=(self.sink, 0, length)
        )
        yield from self.device.post_send_timed(self.rc_qp, wr)
        yield from self._await_cqes(1)
        return self.sink.read(0, length)

    def _faa(self, raddr: int, add: int) -> Generator[Event, None, int]:
        wr = WorkRequest.fetch_add(
            raddr=raddr, rkey=self.ring_rkey, add=add,
            local=(self.sink, self._atomic_off, 8),
        )
        yield from self.device.post_send_timed(self.rc_qp, wr)
        yield from self._await_cqes(1)
        return int.from_bytes(self.sink.read(self._atomic_off, 8), "little")

    def _enqueue_onesided(self, item: int) -> Generator[Event, None, None]:
        cfg = self.config
        if cfg.ticket_mode == "faa":
            # One atomic, no race to lose: the fetch-style primitive.
            ticket = yield from self._faa(self.ring_addr + TAIL_OFF, 1)
        else:
            while True:
                raw = yield from self._read(self.ring_addr + TAIL_OFF, 8)
                tail = _U64.unpack(raw)[0]
                original = yield from self._cas(
                    self.ring_addr + TAIL_OFF, self.ring_rkey, tail, tail + 1
                )
                if original == tail:
                    ticket = tail
                    break
                self.enq_retries += 1
                yield self.sim.timeout(
                    cfg.backoff_ns * (0.5 + self.rng.random())
                )
        if ticket >= cfg.capacity:
            raise RuntimeError("queue ring overflow; raise QueueConfig.capacity")
        # Publish the item: state = ticket + 1 marks the slot full.
        wr = WorkRequest.write(
            raddr=self.ring_addr + RING_OFF + ticket * SLOT_BYTES,
            rkey=self.ring_rkey,
            payload=_SLOT.pack(ticket + 1, item),
            inline=True,
        )
        yield from self.device.post_send_timed(self.rc_qp, wr)
        yield from self._await_cqes(1)
        self.enqueues.append((ticket, item))

    def _dequeue_onesided(self) -> Generator[Event, None, None]:
        cfg = self.config
        attempts = 0
        while True:
            raw = yield from self._read(self.ring_addr + HEAD_OFF, 16)
            head, tail = _SLOT.unpack(raw)
            if head >= tail:
                attempts += 1
                if attempts >= 8:
                    return  # empty; bounded politeness
                yield self.sim.timeout(
                    cfg.backoff_ns * (0.5 + self.rng.random())
                )
                continue
            original = yield from self._cas(
                self.ring_addr + HEAD_OFF, self.ring_rkey, head, head + 1
            )
            if original != head:
                self.deq_retries += 1
                yield self.sim.timeout(
                    cfg.backoff_ns * (0.5 + self.rng.random())
                )
                continue
            # Ticket claimed; spin until the enqueuer's WRITE lands.
            slot_addr = self.ring_addr + RING_OFF + head * SLOT_BYTES
            while True:
                raw = yield from self._read(slot_addr, SLOT_BYTES)
                state, item = _SLOT.unpack(raw)
                if state == head + 1:
                    self.dequeues.append((head, item))
                    return
                yield self.sim.timeout(
                    cfg.backoff_ns * (0.5 + self.rng.random())
                )


class TxnQueueCluster(Testbed):
    """A remote FIFO queue deployment, one-sided or RPC."""

    def __init__(
        self,
        config: Optional[QueueConfig] = None,
        profile: HardwareProfile = APT,
        n_clients: int = 6,
        n_client_machines: int = 3,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else QueueConfig()
        cfg = self.config
        super().__init__(profile, n_client_machines, seed)
        self.ring = self.server_device.register_memory(
            RING_OFF + cfg.capacity * SLOT_BYTES
        )
        self.server: Optional[TxnServerProcess] = None
        if cfg.dataplane == "rpc":
            store = TxnPartitionStore(self.server_device, 0, 1, 1, 8)
            self.server = TxnServerProcess(0, self.server_device, store, 8)
            self._region = self.server_device.register_memory(max(1, n_clients) * 64)
            self._region.on_write = lambda offset, _len: self.server.arrivals.put(
                offset // 64
            )
            self.server.region = self._region
            self.server.req_slot_bytes = 64
            self.server.ud_qp = self.server_device.create_qp(Transport.UD)
            self.servers = [self.server]
        #: time of the last completion (the workload is a fixed op count)
        self._finish = 0.0
        for cid in range(n_clients):
            device = self.client_device(cid)
            client = _QueueClient(cid, device, cfg, child_rng(seed, "q.client.%d" % cid))
            if cfg.dataplane == "rpc":
                client.rpc = RpcChannel(
                    device, "q-c%d" % cid, cfg.rpc_timeout_ns, recv_bytes=64
                )
                _s_uc, client.rpc.uc_qp = self.connect(
                    self.server_device, device, Transport.UC
                )
                client.rpc.req_slots[0] = (self._region.addr + cid * 64, self._region.rkey)
                self.server.client_ahs.append(
                    (device.machine.name, client.rpc.ud_qp.qpn)
                )
            else:
                _s_rc, client.rc_qp = self.connect(
                    self.server_device, device, Transport.RC
                )
                client.ring_addr = self.ring.addr
                client.ring_rkey = self.ring.rkey
            self.clients.append(client)

    def attach_meter(self, client, record) -> None:
        def hook(now, latency):
            record(now, latency)
            self._finish = max(self._finish, now)

        client.completed_hook = hook

    def run(self, warmup_ns: float = 0.0, horizon_ns: float = 2_000_000.0) -> QueueReport:
        meter, latencies = self.open_window(warmup_ns, float("inf"))
        self.sim.run(until=horizon_ns)
        self.sim.run_until_idle()
        # The workload is a fixed op count, not a fixed window: close
        # the meters at the last completion (sim.now is pinned to the
        # horizon by run(), long after the ops finished).
        meter.window_end = max(1.0, self._finish)
        latencies.window_end = meter.window_end
        return self._report(meter, latencies)

    def _report(self, meter: RateMeter, latencies: LatencyRecorder) -> QueueReport:
        enqueued: Dict[int, int] = {}
        violations: List[str] = []
        for client in self.clients:
            for ticket, item in client.enqueues:
                if ticket in enqueued:
                    violations.append("ticket %d enqueued twice" % ticket)
                enqueued[ticket] = item
        seen: Dict[int, int] = {}
        for client in self.clients:
            for ticket, item in client.dequeues:
                if ticket in seen:
                    violations.append("ticket %d dequeued twice" % ticket)
                seen[ticket] = item
                if ticket not in enqueued:
                    violations.append("ticket %d dequeued but never enqueued" % ticket)
                elif enqueued[ticket] != item:
                    violations.append(
                        "ticket %d: dequeued item %d != enqueued %d"
                        % (ticket, item, enqueued[ticket])
                    )
        # FIFO by construction = ticket order; per-client dequeue
        # tickets must be the order the client claimed them (appended).
        for client in self.clients:
            tickets = [t for t, _ in client.dequeues]
            if tickets != sorted(tickets):
                violations.append(
                    "client %d dequeued tickets out of order: %s" % (client.cid, tickets)
                )
        window = meter.window_end
        return QueueReport(
            dataplane=self.config.dataplane,
            ticket_mode=self.config.ticket_mode,
            result=collect(meter, latencies, window),
            enqueued=sum(len(c.enqueues) for c in self.clients),
            dequeued=sum(len(c.dequeues) for c in self.clients),
            enq_retries=sum(c.enq_retries for c in self.clients),
            deq_retries=sum(c.deq_retries for c in self.clients),
            violations=violations[:16],
        )
