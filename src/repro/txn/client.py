"""Transaction clients: the RPC and one-sided commit dataplanes.

Both drivers expose the same closed-loop transaction interface and
record the same :class:`~repro.ha.checker.TxnRecord` history, so the
serializability checker and the benchmark harness cannot tell them
apart — only their performance differs:

* **RPC** (:class:`RpcChannel` + ``_attempt_rpc``) — HERD-style: the
  client UC-WRITEs framed requests into per-partition request regions
  and receives UD SEND responses.  Single-partition update
  transactions take the ``TXN_ONE`` one-shot (1 RTT, zero aborts);
  multi-partition ones run READ → PREPARE (lock) → VALIDATE → COMMIT.
  Every byte of concurrency control is executed by server CPUs.
* **One-sided** (``_attempt_onesided``) — FaRM/DrTM-style: the client
  READs slots directly, locks write keys with ``ATOMIC_CMP_AND_SWP``,
  re-READs headers to validate, and installs with WRITEs that release
  the lock, bump the version, and deposit the value in one packet.
  Server CPUs never run — which is why this dataplane keeps committing
  while a participant process is crash-paused — but every transaction
  costs several RTTs and hot keys degenerate into CAS retry storms.
"""

from __future__ import annotations

import random
import struct
from typing import Dict, Generator, List, Optional, Tuple

from repro.ha.checker import TxnRecord
from repro.sim import Event, Store
from repro.txn import wire
from repro.txn.store import (
    LOCK_OFF,
    SLOT_HDR_BYTES,
    pack_install,
    parse_header,
    parse_slot,
)
from repro.verbs import (
    CompletionQueue,
    QueuePair,
    RdmaDevice,
    RecvRequest,
    StagingRing,
    Transport,
    WorkRequest,
)

#: value payloads start with this struct: (client, seq, key) — every
#: written value names its writer, which is what lets the post-run
#: audit attribute any byte in the store to a transaction
_VALUE_TAG = struct.Struct("<IIQ")
VALUE_TAG_BYTES = _VALUE_TAG.size

_GRH = 40


def make_value(client: int, seq: int, key: int, value_bytes: int) -> bytes:
    """The unique value transaction (client, seq) writes to ``key``."""
    tag = _VALUE_TAG.pack(client, seq, key)
    if value_bytes < VALUE_TAG_BYTES:
        raise ValueError("value_bytes must be >= %d" % VALUE_TAG_BYTES)
    return tag + b"\x00" * (value_bytes - VALUE_TAG_BYTES)


def parse_value(value: bytes) -> Optional[Tuple[int, int, int]]:
    """(client, seq, key) if ``value`` was written by a txn, else None."""
    if len(value) < VALUE_TAG_BYTES or not any(value):
        return None
    client, seq, key = _VALUE_TAG.unpack_from(value, 0)
    return client, seq, key


class RpcChannel:
    """A client's request/response machinery for the RPC dataplane.

    One UC QP carries request WRITEs to every partition; one UD QP with
    a RECV ring takes the responses.  :meth:`call` broadcasts a request
    per partition and collects responses, retrying the stragglers on a
    timeout — which is what rides out a crash-paused participant.
    """

    def __init__(self, device: RdmaDevice, name: str, timeout_ns: float,
                 recv_slots: int = 64, recv_bytes: int = 1024,
                 staging_bytes: int = 4096) -> None:
        self.device = device
        self.sim = device.sim
        self.name = name
        self.timeout_ns = timeout_ns
        self.uc_qp: Optional[QueuePair] = None  # wired by the cluster
        self.recv_cq = CompletionQueue(self.sim, name + ".rcq")
        self.ud_qp = device.create_qp(Transport.UD, recv_cq=self.recv_cq)
        self._recv_slot = _GRH + recv_bytes
        self.recv_mr = device.register_memory(recv_slots * self._recv_slot)
        self._recv_slots = recv_slots
        #: un-inlined requests are staged here; one :meth:`call` stages
        #: up to one request per partition
        self._staging = StagingRing(device, staging_bytes)
        #: partition -> (raddr of my request slot, rkey)
        self.req_slots: Dict[int, Tuple[int, int]] = {}
        self.inbox: Store = Store(self.sim)
        self._att = 0
        self.retries = 0

    def start(self) -> None:
        for i in range(self._recv_slots):
            self._post_recv(i * self._recv_slot)
        self.sim.process(self._dispatch(), name=self.name + "-rcq")

    def _post_recv(self, offset: int) -> None:
        self.device.post_recv(
            self.ud_qp,
            RecvRequest(wr_id=offset, local=(self.recv_mr, offset, self._recv_slot)),
        )

    def _dispatch(self) -> Generator[Event, None, None]:
        p = self.device.profile
        while True:
            cqe = yield self.recv_cq.pop()
            raw = self.recv_mr.read(cqe.wr_id + _GRH, cqe.byte_len)
            self._post_recv(cqe.wr_id)
            yield self.sim.timeout(p.cq_poll_ns + p.post_recv_ns)
            self.inbox.put(("r",) + wire.decode_response(raw))

    def _post_request(self, partition: int, kind: int, seq: int,
                      body: bytes) -> Generator[Event, None, None]:
        payload = wire.encode_request(kind, seq, body)
        raddr, rkey = self.req_slots[partition]
        if len(payload) <= self.device.profile.max_inline:
            wr = WorkRequest.write(
                raddr=raddr, rkey=rkey, payload=payload, inline=True, signaled=False
            )
        else:
            wr = self._staging.write(payload, raddr, rkey)
            while wr is None:
                yield self._staging.wait()
                wr = self._staging.write(payload, raddr, rkey)
        yield from self.device.post_send_timed(self.uc_qp, wr)

    def call(self, targets: Dict[int, Tuple[int, bytes]], seq: int
             ) -> Generator[Event, None, Dict[int, Tuple[int, bytes]]]:
        """Send (kind, body) to each partition; collect all responses.

        Retries unanswered partitions on timeout forever — the server
        dedup cache makes retries idempotent, so this is safe across
        crash-pause outages.
        """
        want = dict(targets)
        results: Dict[int, Tuple[int, bytes]] = {}
        first = True
        while want:
            if not first:
                self.retries += len(want)
            first = False
            for partition in sorted(want):
                kind, body = want[partition]
                yield from self._post_request(partition, kind, seq, body)
            self._att += 1
            att = self._att
            self.sim.call_in(
                self.timeout_ns, lambda a=att: self.inbox.put(("t", a))
            )
            while want:
                msg = yield self.inbox.get()
                if msg[0] == "t":
                    if msg[1] == att:
                        break  # resend the stragglers
                    continue  # a stale watchdog token
                _, kind_r, seq_r, status, partition, body = msg
                if seq_r != seq or partition not in want:
                    continue  # duplicate or late response
                if kind_r != want[partition][0]:
                    continue
                results[partition] = (status, body)
                del want[partition]
        return results


class OneSidedClient:
    """What a transaction client and a queue client share: ``start``,
    and on the one-sided dataplane a dispatcher that hands ``rc_qp``'s
    send completions to :meth:`_await_cqes`, and :meth:`_cas`, whose
    old value lands at ``sink[_atomic_off:+8]``.

    A subclass names its processes (``NAME``) and wires either ``rpc``
    or ``rc_qp``, ``sink``, ``_atomic_off`` and ``_cq_inbox``.
    """

    NAME = ""

    def start(self) -> None:
        if self.rpc is not None:
            self.rpc.start()
        else:
            self.sim.process(
                self._dispatch_cqes(), name="%s-c%d-scq" % (self.NAME, self.cid)
            )
        self.sim.process(self.run(), name="%s-c%d" % (self.NAME, self.cid))

    def _dispatch_cqes(self) -> Generator[Event, None, None]:
        while True:
            cqe = yield self.rc_qp.send_cq.pop()
            self._cq_inbox.put(cqe)

    def _await_cqes(self, n: int) -> Generator[Event, None, None]:
        for _ in range(n):
            yield self._cq_inbox.get()
        yield self.sim.timeout(self.profile.cq_poll_ns)

    def _cas(self, raddr: int, rkey: int, compare: int, swap: int
             ) -> Generator[Event, None, int]:
        wr = WorkRequest.cmp_swap(
            raddr=raddr, rkey=rkey, compare=compare, swap=swap,
            local=(self.sink, self._atomic_off, 8),
        )
        yield from self.device.post_send_timed(self.rc_qp, wr)
        yield from self._await_cqes(1)
        return int.from_bytes(self.sink.read(self._atomic_off, 8), "little")


class TxnClientProcess(OneSidedClient):
    """One closed-loop transaction client, on either dataplane."""

    NAME = "txn"

    def __init__(
        self,
        cid: int,
        device: RdmaDevice,
        config,  # TxnConfig (kept untyped to avoid a circular import)
        rng: random.Random,
    ) -> None:
        self.cid = cid
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.rng = rng
        self.dataplane = config.dataplane
        self.stop_at = 0.0
        self.history: List[TxnRecord] = []
        self.commits = 0
        self.aborts = 0
        self.completed_hook = None  # fn(now, latency_ns) on commit
        self.commit_hook = None     # fn(now) — cluster counters
        self.abort_hook = None
        self._seq = 0
        cfg = config
        if self.dataplane == "rpc":
            self.rpc = RpcChannel(
                device, "txn-c%d" % cid, cfg.rpc_timeout_ns,
                recv_bytes=cfg.resp_slot_bytes,
                staging_bytes=cfg.n_partitions * cfg.req_slot_bytes,
            )
        else:
            self.rpc = None
            self.rc_qp: Optional[QueuePair] = None  # wired by the cluster
            #: partition -> (store base addr, rkey); slot geometry is
            #: cluster-wide, so key -> address is pure arithmetic
            self.store_slots: Dict[int, Tuple[int, int]] = {}
            slot = SLOT_HDR_BYTES + cfg.value_bytes
            self._read_base = 0
            self._hdr_base = cfg.keys_per_txn * slot
            self._atomic_off = self._hdr_base + cfg.keys_per_txn * SLOT_HDR_BYTES
            self.sink = device.register_memory(self._atomic_off + 64)
            self._cq_inbox: Store = Store(self.sim)
            #: un-inlined installs (one per write key) are staged here;
            #: only shapes whose slot image exceeds the inline limit
            #: register one
            self._staging: Optional[StagingRing] = None
            if slot > self.profile.max_inline:
                self._staging = StagingRing(device, cfg.keys_per_txn * slot)

    # -- workload ----------------------------------------------------------

    def _pick_keys(self) -> List[int]:
        cfg = self.config
        hot = cfg.hot_fraction > 0 and self.rng.random() < cfg.hot_fraction
        keys: List[int] = []
        while len(keys) < cfg.keys_per_txn:
            if hot:
                # The hot set {0, P, 2P, ...} lives entirely in
                # partition 0: hot transactions are single-partition,
                # so the RPC dataplane one-shots them while the
                # one-sided dataplane fights over their lock words.
                k = cfg.n_partitions * self.rng.randrange(cfg.n_hot)
            else:
                k = self.rng.randrange(cfg.n_keys)
            if k not in keys:
                keys.append(k)
        return keys

    def run(self) -> Generator[Event, None, None]:
        cfg = self.config
        while self.sim.now < self.stop_at:
            keys = self._pick_keys()
            read_only = self.rng.random() < cfg.read_only_fraction
            writes = [] if read_only else sorted(set(keys[: cfg.writes_per_txn]))
            attempt = 0
            while True:
                self._seq += 1
                seq = self._seq
                invoked = self.sim.now
                if self.dataplane == "rpc":
                    ok, reads, wvals = yield from self._attempt_rpc(seq, keys, writes)
                else:
                    ok, reads, wvals = yield from self._attempt_onesided(seq, keys, writes)
                self.history.append(
                    TxnRecord(
                        txn_id=self.cid * 1_000_000 + seq,
                        client=self.cid,
                        reads=tuple(reads),
                        writes=tuple(wvals),
                        invoke=invoked,
                        respond=self.sim.now,
                        status="committed" if ok else "aborted",
                    )
                )
                if ok:
                    self.commits += 1
                    if self.commit_hook is not None:
                        self.commit_hook(self.sim.now)
                    if self.completed_hook is not None:
                        self.completed_hook(self.sim.now, self.sim.now - invoked)
                    break
                self.aborts += 1
                if self.abort_hook is not None:
                    self.abort_hook(self.sim.now)
                if self.sim.now >= self.stop_at:
                    break  # give up at the horizon; the attempt is recorded
                attempt += 1
                backoff = cfg.backoff_ns * (1 + min(attempt, 6))
                yield self.sim.timeout(backoff * (0.5 + self.rng.random()))

    # -- RPC dataplane -----------------------------------------------------

    def _attempt_rpc(
        self, seq: int, keys: List[int], writes: List[int]
    ) -> Generator[Event, None, Tuple[bool, list, list]]:
        cfg = self.config
        parts: Dict[int, List[int]] = {}
        for k in sorted(keys):
            parts.setdefault(k % cfg.n_partitions, []).append(k)
        wvals = [(k, make_value(self.cid, seq, k, cfg.value_bytes)) for k in writes]
        wparts = {k % cfg.n_partitions for k in writes}

        if writes and len(parts) == 1:
            # Single-partition update: the TXN_ONE one-shot (1 RTT).
            partition = next(iter(parts))
            res = yield from self.rpc.call(
                {partition: (wire.TXN_ONE, wire.encode_one(sorted(keys), wvals))}, seq
            )
            status, body = res[partition]
            if status != wire.ST_OK:
                return False, [], []
            reads = [(k, v) for k, _ver, v in wire.decode_read_items(body, cfg.value_bytes)]
            return True, reads, wvals

        # Read phase: one TXN_READ per partition.
        res = yield from self.rpc.call(
            {p: (wire.TXN_READ, wire.encode_keys(ks)) for p, ks in parts.items()}, seq
        )
        values: Dict[int, bytes] = {}
        versions: Dict[int, int] = {}
        for _p, (_status, body) in res.items():
            for k, ver, v in wire.decode_read_items(body, cfg.value_bytes):
                values[k] = v
                versions[k] = ver
        reads = sorted(values.items())
        if not writes and len(parts) == 1:
            # One partition's read loop is atomic: a consistent snapshot.
            return True, reads, []

        # Lock phase: PREPARE the write partitions (lock + stage, no
        # read validation yet — FaRM ordering: all locks first).
        if wparts:
            targets = {}
            for p in sorted(wparts):
                pw = [(k, v) for k, v in wvals if k % cfg.n_partitions == p]
                targets[p] = (wire.TXN_PREPARE, wire.encode_prepare([], pw))
            res = yield from self.rpc.call(targets, seq)
            locked = sorted(p for p, (status, _) in res.items() if status == wire.ST_OK)
            if len(locked) != len(wparts):
                if locked:
                    yield from self.rpc.call(
                        {p: (wire.TXN_ABORT, b"") for p in locked}, seq
                    )
                return False, [], []

        # Validate phase: every partition we read from, now that all
        # write locks are held everywhere.
        targets = {}
        for p, ks in parts.items():
            pr = [(k, versions[k]) for k in ks]
            targets[p] = (wire.TXN_VALIDATE, wire.encode_prepare(pr, []))
        res = yield from self.rpc.call(targets, seq)
        if all(status == wire.ST_OK for status, _ in res.values()):
            if wparts:
                yield from self.rpc.call(
                    {p: (wire.TXN_COMMIT, b"") for p in sorted(wparts)}, seq
                )
            return True, reads, wvals
        if wparts:
            yield from self.rpc.call(
                {p: (wire.TXN_ABORT, b"") for p in sorted(wparts)}, seq
            )
        return False, [], []

    # -- one-sided dataplane -----------------------------------------------

    def _slot_info(self, key: int) -> Tuple[int, int]:
        cfg = self.config
        partition = key % cfg.n_partitions
        base, rkey = self.store_slots[partition]
        slot = SLOT_HDR_BYTES + cfg.value_bytes
        return base + (key // cfg.n_partitions) * slot, rkey

    def _attempt_onesided(
        self, seq: int, keys: List[int], writes: List[int]
    ) -> Generator[Event, None, Tuple[bool, list, list]]:
        cfg = self.config
        slot_bytes = SLOT_HDR_BYTES + cfg.value_bytes
        ordered = sorted(keys)

        # 1. Read phase: pipelined READs of the full slots.
        for i, k in enumerate(ordered):
            raddr, rkey = self._slot_info(k)
            wr = WorkRequest.read(
                raddr=raddr, rkey=rkey,
                local=(self.sink, self._read_base + i * slot_bytes, slot_bytes),
                wr_id=i,
            )
            yield from self.device.post_send_timed(self.rc_qp, wr)
        yield from self._await_cqes(len(ordered))
        versions: Dict[int, int] = {}
        values: Dict[int, bytes] = {}
        for i, k in enumerate(ordered):
            raw = self.sink.read(self._read_base + i * slot_bytes, slot_bytes)
            _lock, ver, val = parse_slot(raw, cfg.value_bytes)
            versions[k] = ver
            values[k] = val
        reads = sorted(values.items())

        if not writes:
            if len(ordered) == 1:
                return True, reads, []  # one READ is atomic by itself
            ok = yield from self._validate(ordered, versions, owner=0, wkeys=frozenset())
            return (ok, reads if ok else [], [])

        # 2. Lock phase: CAS each write key's lock word, sorted order.
        owner = (1 << 63) | ((self.cid + 1) << 24) | (seq & 0xFFFFFF)
        acquired: List[int] = []
        for k in writes:
            raddr, rkey = self._slot_info(k)
            original = yield from self._cas(raddr + LOCK_OFF, rkey, 0, owner)
            if original != 0:
                yield from self._release(acquired)
                return False, [], []
            acquired.append(k)

        # 3. Validate: re-READ every slot header under the locks.
        ok = yield from self._validate(ordered, versions, owner, frozenset(writes))
        if not ok:
            yield from self._release(acquired)
            return False, [], []

        # 4. Install: one WRITE per write key carries the released lock,
        # the bumped version, and the value — committing is torn-proof
        # because each slot changes in a single packet, and the NIC
        # needs no server CPU, so commits proceed during a crash-pause.
        wvals = [(k, make_value(self.cid, seq, k, cfg.value_bytes)) for k in writes]
        for j, (k, val) in enumerate(wvals):
            raddr, rkey = self._slot_info(k)
            payload = pack_install(versions[k] + 1, val)
            last = j == len(wvals) - 1
            if len(payload) <= self.profile.max_inline:
                wr = WorkRequest.write(
                    raddr=raddr, rkey=rkey, payload=payload, inline=True, signaled=last
                )
            else:
                wr = self._staging.write(payload, raddr, rkey, signaled=last)
                while wr is None:
                    yield self._staging.wait()
                    wr = self._staging.write(payload, raddr, rkey, signaled=last)
            yield from self.device.post_send_timed(self.rc_qp, wr)
        yield from self._await_cqes(1)
        return True, reads, wvals

    def _validate(self, ordered: List[int], versions: Dict[int, int],
                  owner: int, wkeys: frozenset
                  ) -> Generator[Event, None, bool]:
        for i, k in enumerate(ordered):
            raddr, rkey = self._slot_info(k)
            wr = WorkRequest.read(
                raddr=raddr, rkey=rkey,
                local=(self.sink, self._hdr_base + i * SLOT_HDR_BYTES, SLOT_HDR_BYTES),
                wr_id=i,
            )
            yield from self.device.post_send_timed(self.rc_qp, wr)
        yield from self._await_cqes(len(ordered))
        for i, k in enumerate(ordered):
            raw = self.sink.read(self._hdr_base + i * SLOT_HDR_BYTES, SLOT_HDR_BYTES)
            lock, ver = parse_header(raw)
            if ver != versions[k]:
                return False
            if k in wkeys:
                if lock != owner:
                    return False
            elif lock != 0:
                # Someone else is mid-install on a key we read: their
                # write serialises around us; retry rather than risk it.
                return False
        return True

    def _release(self, acquired: List[int]) -> Generator[Event, None, None]:
        """Zero the lock words of ``acquired`` (abort path)."""
        if not acquired:
            return
        for j, k in enumerate(acquired):
            raddr, rkey = self._slot_info(k)
            wr = WorkRequest.write(
                raddr=raddr + LOCK_OFF, rkey=rkey, payload=b"\x00" * 8,
                inline=True, signaled=j == len(acquired) - 1,
            )
            yield from self.device.post_send_timed(self.rc_qp, wr)
        yield from self._await_cqes(1)
