"""Live key-range migration over the repro.ha replication mesh.

One :class:`ElasticAgent` per replica machine hangs off its
:class:`~repro.ha.replication.HaNode` (``node.elastic``) and owns the
machine's side of every migration:

* as the **source** (the machine hosting the donating partition's
  primary), it snapshots the committed store for the moving range and
  streams it to the destination as MIG_RECORDs — a windowed go-back-N
  stream over the same RC mesh the UPDATE traffic uses, so migration
  bytes pay the same simulated NIC/link costs and suffer the same
  injected faults.  While the stream runs, every commit on the
  partition is **dual-written** onto it (:meth:`on_commit`), so the
  destination converges on the source's commit order: a later mseq
  always carries a newer-or-equal value for its key.
* as the **destination**, it applies records *in mseq order* through
  :meth:`~repro.ha.replication.ReplicaRole.stage_migration`, which
  replicates them durably to the destination's own backups before the
  cumulative MIG_ACK advances — an acked record can no longer be lost
  to a destination failover.
* for the **cutover**, CTRL_MIG_CUTOVER freezes the moving range
  (in-range requests *hold* rather than commit new writes), the source
  drains its stream plus any in-range uncommitted suffix, and reports
  MIG_FLUSHED; only then does the coordinator publish the new shard
  map.  Every value the source ever acked is therefore at the
  destination — committed under its replication — before any client
  routes there.

The agent is deliberately crash-shaped: a fenced or crashed primary
calls :meth:`abort_partition` (wired into ``ReplicaRole._demote`` /
``on_crash``), the coordinator aborts and restarts the move from the
new primary with a fresh, larger mig_id, and the destination silences
any stale stream because the **highest mig_id wins** per partition.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set, Tuple

from repro.verbs import WorkRequest
from repro.herd import wire

#: go-back-N window of unacked MIG_RECORDs per migration
MIG_WINDOW = 8
#: fruitless retransmission rounds before the source gives up (the
#: coordinator will abort the move anyway once it detects the stall)
MAX_RETRANSMIT_ROUNDS = 25


class MigrationSource:
    """Source-side state for one outgoing migration."""

    __slots__ = (
        "mig_id", "partition", "dst_partition", "dst_replica", "lo", "hi",
        "pending", "unacked", "next_mseq", "acked", "snapshot_done",
        "frozen", "aborted", "done", "retransmit_rounds", "last_send_ns",
        "last_event_ns",
    )

    def __init__(self, mig_id, partition, dst_partition, dst_replica, lo, hi):
        self.mig_id = mig_id
        self.partition = partition
        self.dst_partition = dst_partition
        self.dst_replica = dst_replica
        self.lo = lo
        self.hi = hi
        #: (mseq, keyhash, value) not yet shipped
        self.pending = deque()
        #: mseq -> (keyhash, value) shipped, not yet cumulatively acked
        self.unacked: Dict[int, Tuple[bytes, bytes]] = {}
        self.next_mseq = 1
        self.acked = 0  # cumulative ack from the destination
        self.snapshot_done = False
        self.frozen = False  # cutover received: hold in-range requests
        self.aborted = False
        self.done = False
        self.retransmit_rounds = 0
        self.last_send_ns = float("-inf")
        self.last_event_ns = float("-inf")

    def covers(self, keyhash: bytes) -> bool:
        h = int.from_bytes(keyhash[:8], "little")
        return self.lo <= h < self.hi

    def enqueue(self, keyhash: bytes, value: bytes) -> None:
        self.pending.append((self.next_mseq, keyhash, value))
        self.next_mseq += 1

    def on_ack(self, mseq: int) -> None:
        if mseq > self.acked:
            self.acked = mseq
            self.retransmit_rounds = 0
            for shipped in [m for m in self.unacked if m <= mseq]:
                del self.unacked[shipped]

    def idle(self) -> bool:
        """Nothing left to ship and everything shipped is acked."""
        return self.snapshot_done and not self.pending and not self.unacked


class MigrationSink:
    """Destination-side state for one incoming migration."""

    __slots__ = ("mig_id", "src_replica", "partition", "buffer", "applied", "committed")

    def __init__(self, mig_id, src_replica, partition):
        self.mig_id = mig_id
        self.src_replica = src_replica
        self.partition = partition
        #: out-of-order records waiting for their mseq turn
        self.buffer: Dict[int, Tuple[bytes, bytes]] = {}
        self.applied = 0  # contiguous prefix staged into replication
        self.committed = 0  # contiguous prefix committed (ackable)


class ElasticAgent:
    """One replica machine's half of the elastic dataplane."""

    def __init__(self, node, shard_map) -> None:
        self.node = node
        self.shard_map = shard_map
        #: (machine, qpn) of the coordinator's UD QP, wired by the cluster
        self.coordinator_ah: Optional[Tuple[str, int]] = None
        self.outgoing: Dict[int, MigrationSource] = {}  # mig_id -> source
        self.incoming: Dict[int, MigrationSink] = {}  # partition -> sink
        self.dead_migs: Set[int] = set()
        # counters (fingerprint evidence)
        self.records_sent = 0
        self.records_applied = 0
        self.maps_adopted = 0
        self.migrations_started = 0
        self.migrations_finished = 0
        self.migrations_aborted = 0

    # -- role-facing hooks ---------------------------------------------

    def request_verdict(self, partition: int, keyhash: bytes) -> str:
        """"serve", "hold" (frozen for cutover), or "not_owner"."""
        if self.shard_map.owner_of(keyhash) != partition:
            return "not_owner"
        for src in self.outgoing.values():
            if (
                src.partition == partition
                and src.frozen
                and not src.aborted
                and src.covers(keyhash)
            ):
                return "hold"
        return "serve"

    def on_commit(self, partition: int, keyhash: bytes, value: bytes) -> None:
        """Dual-write a committed record onto covering outgoing streams."""
        for src in self.outgoing.values():
            if (
                src.partition == partition
                and not src.aborted
                and not src.done
                and src.covers(keyhash)
            ):
                src.enqueue(keyhash, value)

    def abort_partition(self, partition: int) -> None:
        """Fenced/crashed locally: kill this partition's migration state."""
        for src in self.outgoing.values():
            if src.partition == partition and not src.done:
                src.aborted = True
        sink = self.incoming.get(partition)
        if sink is not None:
            del self.incoming[partition]
            self.dead_migs.add(sink.mig_id)

    # -- control channel (coordinator -> node, over UD) ----------------

    def on_ctrl(self, kind: int, data: bytes):
        """Generator: dispatch one control message from the coordinator."""
        if kind == wire.CTRL_MIG_START:
            mig_id, src_p, dst_p, dst_replica, lo, hi = wire.decode_mig_start(data)
            self._on_start(mig_id, src_p, dst_p, dst_replica, lo, hi)
        elif kind == wire.CTRL_MIG_CUTOVER:
            src = self.outgoing.get(wire.decode_mig_ctl(data))
            if src is not None and not src.aborted:
                src.frozen = True
        elif kind == wire.CTRL_MIG_ABORT:
            self._on_abort(wire.decode_mig_ctl(data))
        elif kind == wire.CTRL_SHARDMAP:
            self._on_shard_map(data)
        yield from ()  # generator, like the node's other ctrl handlers

    def _on_start(self, mig_id, src_p, dst_p, dst_replica, lo, hi):
        if mig_id in self.outgoing or mig_id in self.dead_migs:
            return  # idempotent re-send
        role = self.node.roles[src_p]
        if not role.is_primary:
            return  # stale start: we lost the partition since it was sent
        src = MigrationSource(mig_id, src_p, dst_p, dst_replica, lo, hi)
        # Snapshot the committed store at one sim instant.  Dual-writes
        # enqueue behind it, so a later mseq always carries a value at
        # least as new: last-write-wins at the sink converges on the
        # source's committed state.
        for keyhash, value in role.server.store.items():
            if src.covers(keyhash):
                src.enqueue(keyhash, value)
        src.snapshot_done = True
        self.outgoing[mig_id] = src
        self.migrations_started += 1
        self.node.sim.process(
            self._pump(src),
            name="elastic-rep%d-mig%d" % (self.node.replica_id, mig_id),
        )

    def _on_abort(self, mig_id: int) -> None:
        self.dead_migs.add(mig_id)
        src = self.outgoing.get(mig_id)
        if src is not None and not src.done:
            src.aborted = True
        for partition, sink in list(self.incoming.items()):
            if sink.mig_id == mig_id:
                del self.incoming[partition]

    def _on_shard_map(self, data: bytes) -> None:
        version, entries = wire.decode_shard_map(data)
        if version <= self.shard_map.version:
            return
        from repro.elastic.shardmap import ShardMap

        self.shard_map = ShardMap(version, entries)
        self.maps_adopted += 1
        # An outgoing migration whose range we no longer own has been
        # cut over: retire it.  Held in-range requests now resolve to
        # "not_owner" and the clients re-route to the new owner.
        for mig_id, src in list(self.outgoing.items()):
            if src.done or src.aborted:
                del self.outgoing[mig_id]
                self.dead_migs.add(mig_id)
            elif self.shard_map.owner_of_hash(src.lo) != src.partition:
                src.done = True
                del self.outgoing[mig_id]
                self.dead_migs.add(mig_id)
                self.migrations_finished += 1

    # -- mesh traffic (MIG_RECORD / MIG_ACK) ---------------------------

    def on_mesh(self, kind: int, data: bytes, peer: int):
        """Generator: dispatch one mesh message from replica ``peer``."""
        if kind == wire.MIG_RECORD:
            yield from self._on_record(data, peer)
        elif kind == wire.MIG_ACK:
            mig_id, mseq = wire.decode_mig_ack(data)
            src = self.outgoing.get(mig_id)
            if src is not None:
                src.on_ack(mseq)

    def _on_record(self, data: bytes, peer: int):
        mig_id, mseq, dst_partition, keyhash, value = wire.decode_mig_record(data)
        if mig_id in self.dead_migs:
            return
        sink = self.incoming.get(dst_partition)
        if sink is None or sink.mig_id < mig_id:
            # highest mig_id wins: a restarted move silences the stale
            # stream so two snapshots can never interleave their writes
            if sink is not None:
                self.dead_migs.add(sink.mig_id)
            sink = MigrationSink(mig_id, peer, dst_partition)
            self.incoming[dst_partition] = sink
        elif sink.mig_id > mig_id:
            return
        sink.src_replica = peer
        if mseq <= sink.applied:
            # duplicate (go-back-N retransmit): re-ack our progress
            yield from self._send_ack(sink)
            return
        sink.buffer[mseq] = (keyhash, value)
        yield from self._drain_sink(sink)

    def _drain_sink(self, sink: MigrationSink):
        role = self.node.roles[sink.partition]
        while sink.applied + 1 in sink.buffer:
            if not role.is_primary or role.syncing is not None:
                return  # not safe to stage here; coordinator will abort
            mseq = sink.applied + 1
            keyhash, value = sink.buffer.pop(mseq)
            sink.applied = mseq
            self.records_applied += 1
            yield from role.stage_migration(
                keyhash, value, on_commit=self._commit_cb(sink, mseq)
            )

    def _commit_cb(self, sink: MigrationSink, mseq: int):
        def fire(_seq: int) -> None:
            if sink.committed < mseq:
                sink.committed = mseq
                self.node.sim.process(self._ack_later(sink))

        return fire

    def _ack_later(self, sink: MigrationSink):
        yield from self._send_ack(sink)

    def _send_ack(self, sink: MigrationSink):
        payload = wire.encode_mig_ack(sink.mig_id, sink.committed)
        yield from self._mesh_or_local(sink.src_replica, payload)

    # -- the source pump -----------------------------------------------

    def _pump(self, src: MigrationSource):
        node = self.node
        sim = node.sim
        tick = node.heartbeat_ns / 2.0
        retransmit_after = 4.0 * node.heartbeat_ns
        role = node.roles[src.partition]
        while not src.aborted and not src.done:
            sent = False
            while src.pending and len(src.unacked) < MIG_WINDOW:
                mseq, keyhash, value = src.pending.popleft()
                src.unacked[mseq] = (keyhash, value)
                yield from self._ship(src, mseq, keyhash, value)
                sent = True
            if (
                not sent
                and src.unacked
                and sim.now - src.last_send_ns >= retransmit_after
            ):
                src.retransmit_rounds += 1
                if src.retransmit_rounds > MAX_RETRANSMIT_ROUNDS:
                    src.aborted = True
                    self.migrations_aborted += 1
                    break
                for mseq in sorted(src.unacked):
                    entry = src.unacked.get(mseq)
                    if entry is None:
                        continue  # acked while an earlier retransmit was in flight
                    keyhash, value = entry
                    yield from self._ship(src, mseq, keyhash, value)
            if src.idle() and sim.now - src.last_event_ns >= node.heartbeat_ns:
                # UD events can drop; re-announce until acted upon
                if not src.frozen:
                    yield from self._send_event(src, wire.MIG_SYNCED)
                    src.last_event_ns = sim.now
                elif self._flushed(src, role):
                    yield from self._send_event(src, wire.MIG_FLUSHED)
                    src.last_event_ns = sim.now
            yield sim.timeout(tick)

    def _ship(self, src, mseq, keyhash, value):
        payload = wire.encode_mig_record(
            src.mig_id, mseq, src.dst_partition, keyhash, value
        )
        src.last_send_ns = self.node.sim.now
        self.records_sent += 1
        yield from self._mesh_or_local(src.dst_replica, payload)

    def _flushed(self, src: MigrationSource, role) -> bool:
        """Frozen + drained: no in-range write can still be acked.

        The stream is idle *and* no in-range key has an uncommitted
        staged PUT — any such commit would dual-write onto the stream
        and un-idle it, so checking both at one instant is sound.
        """
        if not src.idle():
            return False
        return not any(src.covers(keyhash) for keyhash in role.uncommitted)

    def _send_event(self, src: MigrationSource, event: int):
        if self.coordinator_ah is None:
            return
        payload = wire.encode_mig_event(src.mig_id, src.partition, event)
        wr = WorkRequest.send(
            payload=payload, inline=True, signaled=False, ah=self.coordinator_ah
        )
        yield from self.node.device.post_send_timed(self.node.ctrl_qp, wr)

    # -- local vs mesh delivery ----------------------------------------

    def _mesh_or_local(self, peer: int, payload: bytes):
        """Ship to a peer machine, or hand over locally if it is us.

        Initially every partition's primary lives on replica machine 0,
        so the common migration stream is a *local* move between two
        server processes on one machine — modelled as a memcpy, not a
        NIC round-trip (the RC mesh has no self-loop QP).
        """
        if peer == self.node.replica_id:
            node = self.node
            yield node.sim.timeout(len(payload) / node.profile.memcpy_bytes_per_ns)
            yield from self.on_mesh(wire.ha_kind(payload), payload, peer)
        else:
            yield from self.node.send_mesh(peer, payload)
