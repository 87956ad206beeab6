"""The RPC commit dataplane's participant: a HERD-style server process.

One :class:`TxnServerProcess` owns one partition.  Clients UC-WRITE
framed requests (:mod:`repro.txn.wire`) into a per-client slot of the
partition's request region; the region's ``on_write`` observer turns
the landing WRITE into an arrival, and this process handles requests
one at a time inside its polling loop — which is exactly what makes
the RPC dataplane's concurrency control cheap: per-partition state is
touched by one core, so "locking" a key is a CPU-side store, and a
single-partition transaction can read + validate + apply atomically in
one request (``TXN_ONE``) with zero aborts.

Multi-partition transactions run HERD-style two-phase commit:
``TXN_PREPARE`` validates read versions, locks + stages writes, and
votes; ``TXN_COMMIT`` applies staged writes and releases locks;
``TXN_ABORT`` drops them.  All slot mutations for one request happen
*between* simulator yields, so a crash (which parks the process at a
yield boundary) can never tear a commit — the recovery audit in the
cluster asserts this.

Retries are made safe by a per-client dedup cache on ``(seq, phase)``:
a duplicate request (client timeout, crash-pause outage) is answered
with the cached response bytes instead of being re-executed.

Crash/recovery follows the HERD server's pause model: the MR (locks,
versions, values, staged writes) survives — like HERD's ``shmget``
regions surviving a process restart — while the polling loop stops
consuming arrivals until :meth:`recover`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.sim import Event, Store
from repro.txn import wire
from repro.txn.store import TxnPartitionStore
from repro.verbs import QueuePair, RdmaDevice, StagingRing, WorkRequest


class TxnServerProcess:
    """One partition's participant core."""

    def __init__(
        self,
        index: int,
        device: RdmaDevice,
        store: TxnPartitionStore,
        value_bytes: int,
    ) -> None:
        self.index = index
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.store = store
        self.value_bytes = value_bytes
        #: client indices that landed a request WRITE (fed by the
        #: cluster's request-region on_write observer)
        self.arrivals: Store = Store(self.sim)
        #: request region, carved per client (wired by the cluster)
        self.region = None
        self.req_slot_bytes = 0
        #: per client: (machine, ud_qpn) for responses
        self.client_ahs: List[Tuple[str, int]] = []
        self.ud_qp: Optional[QueuePair] = None
        self._staging = StagingRing(device, 1 << 16)
        #: 2PC state: (client, seq) -> [(key, value), ...] staged writes
        self._staged: Dict[Tuple[int, int], List[Tuple[int, bytes]]] = {}
        #: commits already applied, for idempotent duplicate COMMITs
        self._applied: Set[Tuple[int, int]] = set()
        #: per client: (seq, phase rank, kind, cached response payload)
        self._last: Dict[int, Tuple[int, int, int, bytes]] = {}
        #: the server-side FIFO queue (repro.txn.queue's RPC flavour)
        self._queue: Deque[Tuple[int, int]] = deque()
        self._q_next_ticket = 0
        self.alive = True
        self.epoch = 0
        self._charge_keys = 0
        self.requests_handled = 0
        self.commits_applied = 0
        self.prepares_rejected = 0
        self.duplicates_answered = 0
        self.crashes = 0
        self.recoveries = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.sim.process(self.run(self.epoch), name="txn-s%d" % self.index)

    def crash(self) -> bool:
        """Pause the polling loop (False if already paused); MR state
        (locks, staged writes) survives."""
        if not self.alive:
            return False
        self.alive = False
        self.epoch += 1
        self.crashes += 1
        return True

    def recover(self) -> bool:
        """Restart the polling loop (False if it is running)."""
        if self.alive:
            return False
        self.alive = True
        self.epoch += 1
        self.recoveries += 1
        self.start()
        return True

    # -- polling loop ------------------------------------------------------

    def run(self, epoch: int) -> Generator[Event, None, None]:
        p = self.profile
        while True:
            client = yield self.arrivals.get()
            if not self.alive or epoch != self.epoch:
                # A stale loop woke on an arrival meant for the next
                # incarnation: hand the wakeup back and exit.
                self.arrivals.put(client)
                return
            yield self.sim.timeout(4 * p.poll_check_ns)
            raw = self.region.read(client * self.req_slot_bytes, self.req_slot_bytes)
            kind, seq, body = wire.decode_request(raw)
            if kind == 0:
                continue  # stale slot (should not happen; be safe)
            rank = wire.PHASE_RANK.get(kind)
            if rank is None:
                continue
            cached = self._last.get(client)
            if cached is not None:
                cseq, crank, ckind, cpayload = cached
                if (seq, rank) < (cseq, crank):
                    continue  # stale retransmit of an older phase
                if (seq, rank, kind) == (cseq, crank, ckind):
                    # Duplicate: answer from the cache, do not re-execute.
                    self.duplicates_answered += 1
                    yield from self._send_response(client, cpayload)
                    continue
            payload = self._handle(client, kind, seq, body)
            self._last[client] = (seq, rank, kind, payload)
            self.requests_handled += 1
            yield from self._send_response(client, payload)

    # -- request handlers --------------------------------------------------
    #
    # Handlers are plain functions (no yields): every mutation of the
    # partition store is atomic w.r.t. crash-pause and other requests.
    # The DRAM cost of the keys touched is charged afterwards, inside
    # _send_response's timed path.

    def _handle(self, client: int, kind: int, seq: int, body: bytes) -> bytes:
        if kind == wire.TXN_READ:
            return self._do_read(client, seq, body)
        if kind == wire.TXN_PREPARE:
            return self._do_prepare(client, seq, body)
        if kind == wire.TXN_VALIDATE:
            return self._do_validate(client, seq, body)
        if kind == wire.TXN_COMMIT:
            return self._do_commit(client, seq)
        if kind == wire.TXN_ABORT:
            return self._do_abort(client, seq)
        if kind == wire.TXN_ONE:
            return self._do_one(client, seq, body)
        if kind == wire.Q_ENQ:
            return self._do_enqueue(client, seq, body)
        if kind == wire.Q_DEQ:
            return self._do_dequeue(client, seq)
        raise ValueError("unknown request kind %d" % kind)

    def _owner(self, client: int, seq: int) -> int:
        # Nonzero, disjoint from the one-sided owner space (bit 63 set
        # there), unique per (client, attempt).
        return ((client + 1) << 32) | (seq & 0xFFFFFFFF)

    def _do_read(self, client: int, seq: int, body: bytes) -> bytes:
        keys, _ = wire.decode_keys(body)
        items = []
        for key in keys:
            _, version, value = self.store.read_slot(key)
            items.append((key, version, value))
        self._charge_keys = len(keys)
        return wire.encode_response(
            wire.TXN_READ, seq, wire.ST_OK, self.index, wire.encode_read_items(items)
        )

    def _do_prepare(self, client: int, seq: int, body: bytes) -> bytes:
        """Lock + stage the write set; vote on lock conflicts only.

        Read validation deliberately does NOT happen here: the client
        sends ``TXN_VALIDATE`` once *every* partition's locks are held.
        Validating during the lock round would let two transactions
        cross-validate each other's write keys before either locked
        them — distributed write skew.
        """
        _reads, writes = wire.decode_prepare(body, self.value_bytes)
        owner = self._owner(client, seq)
        acquired: List[int] = []
        ok = True
        for key, _ in sorted(writes):
            if self.store.try_lock(key, owner):
                acquired.append(key)
            else:
                ok = False
                break
        self._charge_keys = len(writes)
        if not ok:
            for key in acquired:
                self.store.unlock(key, owner)
            self.prepares_rejected += 1
            return wire.encode_response(wire.TXN_PREPARE, seq, wire.ST_VOTE_NO, self.index)
        if writes:
            self._staged[(client, seq)] = list(writes)
        return wire.encode_response(wire.TXN_PREPARE, seq, wire.ST_OK, self.index)

    def _do_validate(self, client: int, seq: int, body: bytes) -> bytes:
        """OCC read validation, run after the transaction holds all locks."""
        reads, _writes = wire.decode_prepare(body, self.value_bytes)
        owner = self._owner(client, seq)
        self._charge_keys = len(reads)
        for key, expected in reads:
            lock = self.store.read_lock(key)
            if self.store.read_version(key) != expected or lock not in (0, owner):
                self.prepares_rejected += 1
                return wire.encode_response(
                    wire.TXN_VALIDATE, seq, wire.ST_VOTE_NO, self.index
                )
        return wire.encode_response(wire.TXN_VALIDATE, seq, wire.ST_OK, self.index)

    def _do_commit(self, client: int, seq: int) -> bytes:
        tag = (client, seq)
        writes = self._staged.pop(tag, None)
        if writes is not None:
            owner = self._owner(client, seq)
            for key, value in writes:
                self.store.apply(key, value)
                self.store.unlock(key, owner)
            self._applied.add(tag)
            self.commits_applied += 1
            self._charge_keys = len(writes)
        else:
            # Duplicate commit after the dedup cache moved on, or a
            # commit for a read-only partition: idempotent OK.
            self._charge_keys = 0
        return wire.encode_response(wire.TXN_COMMIT, seq, wire.ST_OK, self.index)

    def _do_abort(self, client: int, seq: int) -> bytes:
        writes = self._staged.pop((client, seq), None)
        if writes is not None:
            owner = self._owner(client, seq)
            for key, _ in writes:
                self.store.unlock(key, owner)
            self._charge_keys = len(writes)
        else:
            self._charge_keys = 0
        return wire.encode_response(wire.TXN_ABORT, seq, wire.ST_OK, self.index)

    def _do_one(self, client: int, seq: int, body: bytes) -> bytes:
        """Single-partition one-shot: read + validate + apply, atomically.

        The entire transaction executes inside this handler, so there is
        nothing to validate against concurrent RPC transactions — but a
        *multi-partition* transaction may hold write locks here, and the
        one-shot must respect them or serializability breaks.
        """
        read_keys, writes = wire.decode_one(body, self.value_bytes)
        self._charge_keys = len(read_keys) + len(writes)
        for key, _ in writes:
            if self.store.read_lock(key) != 0:
                self.prepares_rejected += 1
                return wire.encode_response(wire.TXN_ONE, seq, wire.ST_VOTE_NO, self.index)
        items = []
        for key in read_keys:
            lock, version, value = self.store.read_slot(key)
            if lock != 0:
                # A prepared-but-uncommitted txn owns a read key: its
                # install is imminent; refuse rather than read stale.
                self.prepares_rejected += 1
                return wire.encode_response(wire.TXN_ONE, seq, wire.ST_VOTE_NO, self.index)
            items.append((key, version, value))
        for key, value in writes:
            self.store.apply(key, value)
        self.commits_applied += 1
        return wire.encode_response(
            wire.TXN_ONE, seq, wire.ST_OK, self.index, wire.encode_read_items(items)
        )

    # -- FIFO queue ops (server-side remote data structure) ---------------

    def _do_enqueue(self, client: int, seq: int, body: bytes) -> bytes:
        item = wire.decode_u64(body)
        ticket = self._q_next_ticket
        self._q_next_ticket += 1
        self._queue.append((ticket, item))
        self._charge_keys = 1
        return wire.encode_response(
            wire.Q_ENQ, seq, wire.ST_OK, self.index, wire.encode_u64(ticket)
        )

    def _do_dequeue(self, client: int, seq: int) -> bytes:
        self._charge_keys = 1
        if not self._queue:
            return wire.encode_response(wire.Q_DEQ, seq, wire.ST_EMPTY, self.index)
        ticket, item = self._queue.popleft()
        return wire.encode_response(
            wire.Q_DEQ, seq, wire.ST_OK, self.index,
            wire.encode_u64(ticket) + wire.encode_u64(item),
        )

    # -- response path -----------------------------------------------------

    def _send_response(self, client: int, payload: bytes) -> Generator[Event, None, None]:
        p = self.profile
        charge = getattr(self, "_charge_keys", 0)
        if charge:
            yield self.sim.timeout(charge * p.dram_ns)
            self._charge_keys = 0
        ah = self.client_ahs[client]
        if len(payload) <= p.max_inline:
            wr = WorkRequest.send(payload=payload, inline=True, signaled=False, ah=ah)
        else:
            wr = self._staging.send(payload, ah)
            while wr is None:
                yield self._staging.wait()
                wr = self._staging.send(payload, ah)
        yield from self.device.post_send_timed(self.ud_qp, wr)
