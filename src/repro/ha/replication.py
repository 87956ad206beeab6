"""Primary-backup replication of HERD partitions.

Every partition gets a replica group of ``replication_factor`` full
server processes: replica 0 lives on the original ``server`` machine,
replicas 1..k-1 on dedicated ``rep<i>`` machines, each with its own
NIC, request region, and MICA store.  One :class:`HaNode` per replica
machine runs the replication dataplane:

* a full RC mesh between replica machines (one connected QP pair per
  machine pair, shared by all partitions) carries UPDATE / ACK /
  CATCHUP records — real bytes through ``repro.verbs``, so replication
  pays the same simulated PCIe/NIC/link costs as client traffic and is
  subject to the same injected faults (RC retransmission recovers
  drops; receivers dedup by sequence number);
* a UD control QP exchanges heartbeats and lease grants with the
  :class:`~repro.ha.detector.LeaseMonitor`.

The write path is **apply-at-commit**: the primary assigns the PUT a
sequence number, appends it to its log, and ships it to the backups,
but only applies it to its MICA store — and acks the client — once the
ack policy is satisfied (``all`` live backups, or a ``majority`` of
the replica group).  Backup ACKs carry their applied high-water mark,
so one ack credits every outstanding sequence number it covers, and
commits always advance as a contiguous prefix.  GETs for a key with an
uncommitted PUT are parked on the role and served at commit, so a
client can never read a value whose ack could still be abandoned by a
failover (read-your-own-uncommitted-write would break
linearizability).

Promotion is two-phase (viewstamped-replication style): the monitor's
CONFIG names the candidate, which *holds* client traffic while it
CATCHUPs every surviving peer; once its applied sequence reaches every
peer's reported high-water mark it adopts ``next_seq = applied_seq``
and serves.  This closes the corner where the monitor elected on a
stale heartbeat: the candidate always reaches the group's true maximum
before acking anything in the new epoch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.sim import Simulator
from repro.verbs import (
    CompletionQueue,
    QueuePair,
    RdmaDevice,
    RecvRequest,
    StagingRing,
    Transport,
    WorkRequest,
)
from repro.workloads.ycsb import Operation, OpType
from repro.herd.config import HerdConfig
from repro.herd import wire

#: RC RECV slot: UPDATE header (incl. the request token) + keyhash +
#: a full 1 KB value (RC carries no GRH)
MESH_SLOT = 21 + wire.KEYHASH_BYTES + 1024
#: RECV ring depth per peer QP — covers every client window in flight
#: plus a full catch-up burst
MESH_RING = 256
#: UD control slot (GRH + grant/config/shard-map broadcast; a shard
#: map mid-rebalance can carry a couple of dozen range entries)
CTRL_SLOT = 40 + 256
CTRL_RING = 128
#: log entries replayed per CATCHUP request; the requester re-asks
#: (from its advanced hwm) until it is caught up
CATCHUP_BURST = 256


class InflightUpdate:
    """A sequenced PUT the primary has shipped but not yet committed."""

    __slots__ = (
        "seq", "keyhash", "value", "ackers", "respond", "on_commit",
        "created_ns", "shipped_ns",
    )

    def __init__(self, seq, keyhash, value, respond, now):
        self.seq = seq
        self.keyhash = keyhash
        self.value = value
        #: backup replica ids whose applied hwm covers this seq
        self.ackers: Set[int] = set()
        #: (client, window_slot, req_epoch, op) to ack at commit, or
        #: None for a migrated-in record (repro.elastic) that acks the
        #: migration source instead of a client
        self.respond = respond
        #: commit callback for respond-less (migration) records
        self.on_commit = None
        self.created_ns = now
        self.shipped_ns = now


class PartitionGroup:
    """Cross-replica bookkeeping for one partition (checker evidence)."""

    def __init__(self, partition: int, config: HerdConfig) -> None:
        self.partition = partition
        self.config = config
        #: {epoch: {replica ids that acked a client op in it}} — the
        #: split-brain witness (see checker.split_brain)
        self.ack_witness: Dict[int, Set[int]] = {}
        self.promotions = 0

    def record_ack(self, epoch: int, replica: int) -> None:
        self.ack_witness.setdefault(epoch, set()).add(replica)


class ReplicaRole:
    """One replica's view of one partition: epoch, log, commit state.

    Attached to its :class:`~repro.herd.server.HerdServerProcess` as
    ``server.ha_role``; the server consults :meth:`serving_verdict`
    before answering and routes PUTs through :meth:`stage_update`.
    """

    def __init__(
        self,
        partition: int,
        replica_id: int,
        config: HerdConfig,
        group: PartitionGroup,
    ) -> None:
        self.partition = partition
        self.replica_id = replica_id
        self.config = config
        self.group = group
        self.rf = config.replication_factor
        self.lease_ns = config.lease_us * 1000.0
        self.heartbeat_ns = config.heartbeat_us * 1000.0
        #: how long a lease-less / syncing primary waits before
        #: re-checking its verdict while holding a request
        self.hold_retry_ns = self.heartbeat_ns

        self.epoch = 0
        self.is_primary = replica_id == 0
        self.primary_id: Optional[int] = 0
        self.members: Set[int] = set(range(self.rf))
        #: bootstrap lease: replica 0 starts as primary with one lease
        #: term; the first grant arrives within a heartbeat
        self.lease_until = self.lease_ns if self.is_primary else float("-inf")

        self.applied_seq = 0  # prefix applied to the local store
        self.committed_seq = 0  # primary: prefix acked per policy
        self.next_seq = 0  # primary: last assigned
        #: (seq, keyhash, value, client, window_slot, req_epoch) — the
        #: trailing request token travels with every record so any
        #: replica can recognise a client retry of an applied PUT
        self.log: List[Tuple[int, bytes, bytes, int, int, int]] = []
        self.buffer: Dict[int, Tuple[bytes, bytes, int, int, int]] = {}  # out-of-order
        self.inflight: Dict[int, InflightUpdate] = {}
        #: (client, window_slot, req_epoch) -> seq: dedups a retried PUT
        #: so it cannot be assigned a second sequence number
        self.pending_client: Dict[Tuple[int, int, int], int] = {}
        #: (client, window_slot) -> req_epoch of the newest *applied*
        #: PUT from that slot.  A retry whose ack was lost matches here
        #: and is re-acked instead of re-executed — re-staging it would
        #: clobber any interleaved later write to the same key (the
        #: lost-update the checker catches).  Lives with the store (and
        #: so survives crashes): it is exactly the at-most-once table a
        #: real region-backed KV keeps beside its data.
        self.completed: Dict[Tuple[int, int], int] = {}
        self.uncommitted: Dict[bytes, int] = {}  # key -> newest staged seq
        self.read_waiters: Dict[bytes, List[Tuple[int, int, int, Operation]]] = {}
        self.waiting: Set[Tuple[int, int, int]] = set()
        self.peer_hwm: Dict[int, int] = {}
        #: peers the promoted candidate must catch up with before
        #: serving (None = not syncing)
        self.syncing: Optional[Set[int]] = None

        # wired by the cluster
        self.server = None  # HerdServerProcess
        self.node = None  # HaNode

        # counters / invariant evidence
        self.updates_applied = 0
        self.duplicate_updates = 0
        self.stale_updates = 0
        self.commits = 0
        self.stale_nacks_sent = 0
        self.hwm_regressions = 0

    # -- serve-path hooks (called from the server process) -------------

    def serving_verdict(self, now: float) -> str:
        """"serve", "hold" (no lease / still syncing), or "stale"."""
        if not self.is_primary:
            return "stale"
        if self.syncing is not None or now >= self.lease_until:
            return "hold"
        return "serve"

    def live_peers(self) -> Set[int]:
        return set(r for r in self.members if r != self.replica_id)

    def defer_get(self, client, window_slot, req_epoch, op) -> bool:
        """Park a GET whose key has an uncommitted PUT; False if dup."""
        token = (client, window_slot, req_epoch)
        if token in self.waiting:
            return False  # a retry of a GET we already parked
        self.waiting.add(token)
        self.read_waiters.setdefault(op.key, []).append(
            (client, window_slot, req_epoch, op)
        )
        return True

    def stage_update(self, client, window_slot, req_epoch, op):
        """Primary PUT path: sequence, log, ship; ack comes at commit.

        Generator (runs on the server core — the costs of shipping are
        the primary's CPU/PIO time, as in FaRM-style primary-backup).
        """
        node = self.node
        sim = node.sim
        seq = self.next_seq + 1
        self.next_seq = seq
        self.log.append((seq, op.key, op.value, client, window_slot, req_epoch))
        self.uncommitted[op.key] = seq
        self.pending_client[(client, window_slot, req_epoch)] = seq
        inf = InflightUpdate(
            seq, op.key, op.value, (client, window_slot, req_epoch, op), sim.now
        )
        self.inflight[seq] = inf
        payload = wire.encode_update(
            self.partition, self.replica_id, self.epoch, seq, op.key, op.value,
            client, window_slot, req_epoch,
        )
        for peer in sorted(self.live_peers()):
            yield from node.send_mesh(peer, payload)
        node.updates_shipped += 1
        # zero live backups (everyone else declared dead) commits
        # immediately — with ack_policy="all" the policy is vacuously
        # satisfied; with "majority" the write stays pending until a
        # group majority is reachable again
        self.check_commits()

    def stage_migration(self, keyhash, value, on_commit=None):
        """Stage a migrated-in record exactly like a client PUT.

        Generator.  The record rides the ordinary sequenced-update
        replication — same log, same backup acks, same commit rule —
        under the ``wire.MIG_CLIENT`` sentinel token, so backups
        replicate it durably but nobody mistakes it for an at-most-once
        client request.  ``on_commit(seq)`` fires when the commit rule
        is satisfied; the migration sink acks the source from there.
        """
        node = self.node
        sim = node.sim
        seq = self.next_seq + 1
        self.next_seq = seq
        self.log.append((seq, keyhash, value, wire.MIG_CLIENT, 0, 0))
        self.uncommitted[keyhash] = seq
        inf = InflightUpdate(seq, keyhash, value, None, sim.now)
        inf.on_commit = on_commit
        self.inflight[seq] = inf
        payload = wire.encode_update(
            self.partition, self.replica_id, self.epoch, seq, keyhash,
            value, wire.MIG_CLIENT, 0, 0,
        )
        for peer in sorted(self.live_peers()):
            yield from node.send_mesh(peer, payload)
        node.updates_shipped += 1
        self.check_commits()

    def elastic_verdict(self, keyhash) -> str:
        """"serve", "hold" (range frozen for cutover), or "not_owner".

        The elastic layer's routing verdict, consulted by the server
        after the lease verdict.  Without an elastic agent every key is
        served — classic static sharding.
        """
        node = self.node
        if node is None or node.elastic is None:
            return "serve"
        return node.elastic.request_verdict(self.partition, keyhash)

    # -- replication message handlers (called from the node) -----------

    def on_update(self, sender, epoch, seq, keyhash, value, client=0,
                  window_slot=0, req_epoch=0):
        """Apply/buffer an UPDATE; returns (ack_payload, gap_detected)."""
        if epoch < self.epoch:
            self.stale_updates += 1
            ack = wire.encode_rep_ack(
                self.partition, self.replica_id, self.epoch, seq,
                wire.ACK_STALE, self.applied_seq,
            )
            return ack, False
        if epoch > self.epoch:
            # a primary with a newer epoch is authoritative: adopt it
            # (the monitor's CONFIG, possibly still in flight, will
            # confirm); fencing only requires never acking old epochs
            self.epoch = epoch
            self.primary_id = sender
            if self.is_primary:
                self._demote()
            self.syncing = None
        gap = False
        if seq <= self.applied_seq:
            self.duplicate_updates += 1  # RC retransmit or re-ship
        elif seq == self.applied_seq + 1:
            self._apply(seq, keyhash, value, client, window_slot, req_epoch)
            self._drain_buffer()
        else:
            self.buffer[seq] = (keyhash, value, client, window_slot, req_epoch)
            gap = True
        ack = wire.encode_rep_ack(
            self.partition, self.replica_id, self.epoch, seq,
            wire.ACK_APPLIED, self.applied_seq,
        )
        return ack, gap

    def _apply(self, seq, keyhash, value, client=0, window_slot=0, req_epoch=0):
        if seq <= self.applied_seq:
            self.hwm_regressions += 1  # invariant counter; never by design
            return
        self.server.store.put(keyhash, value)
        self.log.append((seq, keyhash, value, client, window_slot, req_epoch))
        if client != wire.MIG_CLIENT:
            # migration records carry no client request to dedup
            self.completed[(client, window_slot)] = req_epoch
        self.applied_seq = seq
        self.updates_applied += 1

    def _drain_buffer(self):
        while self.applied_seq + 1 in self.buffer:
            seq = self.applied_seq + 1
            keyhash, value, client, window_slot, req_epoch = self.buffer.pop(seq)
            self._apply(seq, keyhash, value, client, window_slot, req_epoch)

    def on_ack(self, sender, epoch, seq, status, hwm):
        """Credit a backup ack against in-flight updates; commit."""
        if epoch != self.epoch:
            return  # stale ack (or from a newer epoch we lost; config will fence us)
        previous = self.peer_hwm.get(sender)
        self.peer_hwm[sender] = max(hwm, previous if previous is not None else 0)
        if self.syncing is not None:
            if sender in self.syncing and self.applied_seq >= self.peer_hwm[sender]:
                self.syncing.discard(sender)
            if not self.syncing:
                self._finish_sync()
            return
        if not self.is_primary:
            return
        for s in sorted(self.inflight):
            if s <= hwm:
                self.inflight[s].ackers.add(sender)
        self.check_commits()

    def _required(self, inf: InflightUpdate) -> bool:
        if self.config.ack_policy == "all":
            return self.live_peers() <= inf.ackers
        # majority of the *group* (rf), counting the primary itself —
        # never a majority of the live set, which could let two
        # disjoint "majorities" commit across a network partition
        return len(inf.ackers) + 1 >= self.rf // 2 + 1

    def check_commits(self) -> None:
        """Commit the contiguous acked prefix; ack clients."""
        node = self.node
        server = self.server
        while True:
            seq = self.committed_seq + 1
            inf = self.inflight.get(seq)
            if inf is None or not self._required(inf):
                break
            del self.inflight[seq]
            self.committed_seq = seq
            self.applied_seq = max(self.applied_seq, seq)
            server.store.put(inf.keyhash, inf.value)
            store_ns = server.store.last_op_accesses * server.access_ns
            self.commits += 1
            if node is not None and node._lag_hist is not None:
                node._lag_hist.observe(node.sim.now - inf.created_ns)
            if node is not None and node.elastic is not None:
                # dual-write: forward the committed record onto any
                # live outgoing migration covering its key
                node.elastic.on_commit(self.partition, inf.keyhash, inf.value)
            if inf.respond is None:
                # migrated-in record: ack the migration source, not a client
                if inf.on_commit is not None:
                    inf.on_commit(seq)
            else:
                client, window_slot, req_epoch, op = inf.respond
                self.pending_client.pop((client, window_slot, req_epoch), None)
                self.completed[(client, window_slot)] = req_epoch
                node.sim.process(
                    server.answer(
                        client, window_slot, op, req_epoch, wire.RESP_OK,
                        server.epoch, extra_ns=store_ns, ack_epoch=self.epoch,
                    )
                )
            if self.uncommitted.get(inf.keyhash) == seq:
                del self.uncommitted[inf.keyhash]
                for waiter in self.read_waiters.pop(inf.keyhash, []):
                    w_client, w_slot, w_epoch, w_op = waiter
                    self.waiting.discard((w_client, w_slot, w_epoch))
                    node.sim.process(
                        server.ha_serve_deferred_get(
                            w_client, w_slot, w_epoch, w_op, server.epoch
                        )
                    )

    def on_catchup(self, sender, from_seq):
        """Entries the requester is missing: (records, marker_ack)."""
        records = []
        for seq, keyhash, value, client, window_slot, req_epoch in self.log:
            if seq <= from_seq:
                continue
            records.append(
                wire.encode_update(
                    self.partition, self.replica_id, self.epoch, seq, keyhash,
                    value, client, window_slot, req_epoch,
                )
            )
            if len(records) >= CATCHUP_BURST:
                break
        marker = wire.encode_rep_ack(
            self.partition, self.replica_id, self.epoch,
            self.applied_seq, wire.ACK_APPLIED, self.applied_seq,
        )
        return records, marker

    # -- config transitions (called from the node's control loop) ------

    def on_config(self, primary, epoch, members) -> Optional[str]:
        """Adopt a CONFIG; returns "promote"/"demote"/"check"/None."""
        if epoch <= self.epoch:
            return None
        self.epoch = epoch
        self.members = set(members)
        self.primary_id = None if primary == 0xFF else primary
        if self.primary_id == self.replica_id:
            if self.is_primary:
                # membership changed under the same primary: a shrunken
                # live set may satisfy ack_policy="all" now
                self.check_commits()
                return "check"
            self._promote()
            return "promote"
        if self.is_primary:
            self._demote()
            return "demote"
        return None

    def _promote(self):
        self.is_primary = True
        self.group.promotions += 1
        self.buffer.clear()
        # the applied prefix is the group's durable history as far as
        # this replica knows; syncing pulls anything newer from peers
        self.committed_seq = self.applied_seq
        self.next_seq = self.applied_seq
        self.peer_hwm = {}
        self.syncing = set(self.live_peers())
        # adopting the config is the epoch's first lease term (the
        # monitor will not elect anyone else before our lease expires)
        self.lease_until = self.node.sim.now + self.lease_ns
        if not self.syncing:
            self._finish_sync()

    def _finish_sync(self):
        self.syncing = None
        self.committed_seq = self.applied_seq
        self.next_seq = self.applied_seq

    def _demote(self):
        """Stale primary fenced: nack everything we never committed."""
        node = self.node
        server = self.server
        self.is_primary = False
        self.syncing = None
        # uncommitted log suffix must not survive: it was never acked,
        # and replaying it later (catch-up) could resurrect a write the
        # new epoch's history knows nothing about
        self.log = [entry for entry in self.log if entry[0] <= self.committed_seq]
        self.next_seq = self.committed_seq
        self.applied_seq = self.committed_seq
        if node is not None and node.elastic is not None:
            # a fenced primary must stop streaming migration records
            node.elastic.abort_partition(self.partition)
        for seq in sorted(self.inflight):
            inf = self.inflight[seq]
            if inf.respond is None:
                continue  # migration record: its source re-sends or aborts
            client, window_slot, req_epoch, op = inf.respond
            self.stale_nacks_sent += 1
            node.sim.process(
                server.answer(
                    client, window_slot, op, req_epoch,
                    wire.RESP_STALE_EPOCH, server.epoch,
                )
            )
        self.inflight.clear()
        self.pending_client.clear()
        self.uncommitted.clear()
        for waiters in self.read_waiters.values():
            for w_client, w_slot, w_epoch, w_op in waiters:
                self.stale_nacks_sent += 1
                node.sim.process(
                    server.answer(
                        w_client, w_slot, w_op, w_epoch,
                        wire.RESP_STALE_EPOCH, server.epoch,
                    )
                )
        self.read_waiters.clear()
        self.waiting.clear()

    # -- crash / recovery (called from the server process) -------------

    def on_crash(self):
        """The host server process died: volatile role state dies too.

        The log and applied prefix survive (shared memory, like the
        region and the MICA store); in-flight client bookkeeping is
        volatile, and those clients will retry / fail over anyway.
        """
        self.log = [entry for entry in self.log if entry[0] <= self.committed_seq]
        self.next_seq = self.committed_seq
        if self.is_primary:
            self.applied_seq = self.committed_seq
        if self.node is not None and self.node.elastic is not None:
            self.node.elastic.abort_partition(self.partition)
        self.inflight.clear()
        self.pending_client.clear()
        self.uncommitted.clear()
        self.read_waiters.clear()
        self.waiting.clear()
        self.buffer.clear()
        self.syncing = None
        self.lease_until = float("-inf")

    def on_recover(self):
        """Nothing to rebuild: we hold no lease and serve nothing until
        the monitor re-admits us (rejoin bumps the epoch and fences us
        if we still believe we are primary of an old epoch)."""


class HaNode:
    """The replication dataplane on one replica machine."""

    def __init__(
        self,
        replica_id: int,
        device: RdmaDevice,
        config: HerdConfig,
        roles: List[ReplicaRole],
    ) -> None:
        self.replica_id = replica_id
        self.device = device
        self.sim: Simulator = device.sim
        self.profile = device.profile
        self.config = config
        self.roles = roles  # indexed by partition
        for role in roles:
            role.node = self
        self.heartbeat_ns = config.heartbeat_us * 1000.0

        self.mesh_cq = CompletionQueue(self.sim, "ha.rep%d.mesh" % replica_id)
        self.mesh_qps: Dict[int, QueuePair] = {}  # peer replica -> RC QP
        self._qp_peer: Dict[int, int] = {}  # qpn -> peer replica
        self.mesh_mr = None  # sized in start() once peers are wired
        self._staging = StagingRing(device, 1 << 16)

        self.ctrl_cq = CompletionQueue(self.sim, "ha.rep%d.ctrl" % replica_id)
        self.ctrl_qp = device.create_qp(Transport.UD, recv_cq=self.ctrl_cq)
        self.ctrl_mr = device.register_memory(CTRL_RING * CTRL_SLOT)
        self.monitor_ah: Optional[Tuple[str, int]] = None  # wired by the cluster
        #: the machine's ElasticAgent (repro.elastic), or None for a
        #: static deployment; mesh/ctrl traffic it owns is delegated
        self.elastic = None

        #: throttle: partition -> last CATCHUP request time
        self._catchup_sent_at: Dict[int, float] = {}

        self.updates_shipped = 0
        self.acks_sent = 0
        self.catchups_served = 0
        self.heartbeats_sent = 0

        metrics = getattr(self.sim, "metrics", None)
        self._lag_hist = None
        if metrics is not None:
            prefix = "ha.rep%d." % replica_id
            metrics.gauge_fn(prefix + "updates_shipped", lambda: self.updates_shipped)
            metrics.gauge_fn(prefix + "acks_sent", lambda: self.acks_sent)
            metrics.gauge_fn(prefix + "catchups_served", lambda: self.catchups_served)
            metrics.gauge_fn(prefix + "heartbeats", lambda: self.heartbeats_sent)
            self._lag_hist = metrics.histogram(prefix + "replication_lag_ns")

    # -- wiring --------------------------------------------------------

    def add_peer(self, peer_id: int, qp: QueuePair) -> None:
        self.mesh_qps[peer_id] = qp
        self._qp_peer[qp.qpn] = peer_id

    def start(self) -> None:
        peers = sorted(self.mesh_qps)
        self.mesh_mr = self.device.register_memory(
            max(1, len(peers)) * MESH_RING * MESH_SLOT
        )
        for p_index, peer in enumerate(peers):
            qp = self.mesh_qps[peer]
            base = p_index * MESH_RING * MESH_SLOT
            for i in range(MESH_RING):
                offset = base + i * MESH_SLOT
                self.device.post_recv(
                    qp,
                    RecvRequest(wr_id=offset, local=(self.mesh_mr, offset, MESH_SLOT)),
                )
        for i in range(CTRL_RING):
            offset = i * CTRL_SLOT
            self.device.post_recv(
                self.ctrl_qp,
                RecvRequest(wr_id=offset, local=(self.ctrl_mr, offset, CTRL_SLOT)),
            )
        self.sim.process(self._mesh_loop(), name="ha-rep%d-mesh" % self.replica_id)
        self.sim.process(self._ctrl_loop(), name="ha-rep%d-ctrl" % self.replica_id)
        self.sim.process(self._heartbeat_loop(), name="ha-rep%d-hb" % self.replica_id)

    # -- sending -------------------------------------------------------

    def send_mesh(self, peer: int, payload: bytes):
        qp = self.mesh_qps.get(peer)
        if qp is None:
            return
        if len(payload) <= self.profile.max_inline:
            wr = WorkRequest.send(payload=payload, inline=True, signaled=False)
        else:
            yield self.sim.timeout(len(payload) / self.profile.memcpy_bytes_per_ns)
            # a catch-up replay stages records far faster than the NIC
            # drains them: a full ring waits for the next fetch
            wr = self._staging.send(payload)
            while wr is None:
                yield self._staging.wait()
                wr = self._staging.send(payload)
        yield from self.device.post_send_timed(qp, wr)

    # -- receive loops -------------------------------------------------

    def _mesh_loop(self):
        sim = self.sim
        poll_ns = self.profile.cq_poll_ns
        while True:
            cqe = yield self.mesh_cq.pop()
            yield sim.timeout(poll_ns)
            offset = cqe.wr_id
            data = bytes(self.mesh_mr.read(offset, cqe.byte_len))
            qp = self.device.qps[cqe.qpn]
            self.device.post_recv(
                qp, RecvRequest(wr_id=offset, local=(self.mesh_mr, offset, MESH_SLOT))
            )
            if not data:
                continue
            kind = wire.ha_kind(data)
            if kind == wire.REP_UPDATE:
                yield from self._on_update(data)
            elif kind == wire.REP_ACK:
                partition, sender, epoch, seq, status, hwm = wire.decode_rep_ack(data)
                self.roles[partition].on_ack(sender, epoch, seq, status, hwm)
            elif kind == wire.REP_CATCHUP:
                yield from self._on_catchup(data)
            elif kind in (wire.MIG_RECORD, wire.MIG_ACK) and self.elastic is not None:
                peer = self._qp_peer.get(cqe.qpn)
                if peer is not None:
                    yield from self.elastic.on_mesh(kind, data, peer)

    def _on_update(self, data):
        (
            partition, sender, epoch, seq, keyhash, value,
            client, window_slot, req_epoch,
        ) = wire.decode_update(data)
        role = self.roles[partition]
        before = role.applied_seq
        ack, gap = role.on_update(
            sender, epoch, seq, keyhash, value, client, window_slot, req_epoch
        )
        applied = role.applied_seq - before
        if applied:
            # charge the store writes to this (replication) core
            server = role.server
            yield self.sim.timeout(
                applied * server.store.last_op_accesses * server.access_ns
            )
        yield from self.send_mesh(sender, ack)
        self.acks_sent += 1
        if gap:
            now = self.sim.now
            last = self._catchup_sent_at.get(partition, float("-inf"))
            if now - last >= self.heartbeat_ns:
                self._catchup_sent_at[partition] = now
                request = wire.encode_catchup(
                    partition, self.replica_id, role.epoch, role.applied_seq
                )
                yield from self.send_mesh(sender, request)

    def _on_catchup(self, data):
        partition, sender, epoch, from_seq = wire.decode_catchup(data)
        role = self.roles[partition]
        records, marker = role.on_catchup(sender, from_seq)
        self.catchups_served += 1
        for record in records:
            yield from self.send_mesh(sender, record)
        yield from self.send_mesh(sender, marker)

    def _ctrl_loop(self):
        sim = self.sim
        poll_ns = self.profile.cq_poll_ns
        while True:
            cqe = yield self.ctrl_cq.pop()
            yield sim.timeout(poll_ns)
            offset = cqe.wr_id
            data = bytes(self.ctrl_mr.read(offset + 40, cqe.byte_len))
            self.device.post_recv(
                self.ctrl_qp,
                RecvRequest(wr_id=offset, local=(self.ctrl_mr, offset, CTRL_SLOT)),
            )
            if not data:
                continue
            kind = wire.ha_kind(data)
            if kind == wire.CTRL_GRANT:
                partition, target, epoch, hb_sent_ns = wire.decode_grant(data)
                role = self.roles[partition]
                if target == self.replica_id and epoch == role.epoch and role.is_primary:
                    role.lease_until = max(
                        role.lease_until, hb_sent_ns + role.lease_ns
                    )
            elif kind == wire.CTRL_CONFIG:
                partition, primary, epoch, members = wire.decode_config(data)
                role = self.roles[partition]
                action = role.on_config(primary, epoch, members)
                if action == "promote" and role.syncing:
                    yield from self._send_sync_catchups(role)
            elif self.elastic is not None:
                # migration control (MIG_START/CUTOVER/ABORT, SHARDMAP)
                yield from self.elastic.on_ctrl(kind, data)

    def _send_sync_catchups(self, role):
        for peer in sorted(role.syncing or ()):
            request = wire.encode_catchup(
                role.partition, self.replica_id, role.epoch, role.applied_seq
            )
            yield from self.send_mesh(peer, request)

    # -- heartbeats and repair -----------------------------------------

    def _heartbeat_loop(self):
        sim = self.sim
        # deterministic stagger so replicas do not all heartbeat on the
        # same instant (and so the monitor's UD ring drains smoothly)
        yield sim.timeout(
            self.heartbeat_ns * self.replica_id / max(1, self.config.replication_factor)
        )
        while True:
            for role in self.roles:
                if not role.server.alive:
                    continue
                hb = wire.encode_heartbeat(
                    role.partition, self.replica_id, role.is_primary,
                    role.epoch, role.applied_seq, sim.now,
                )
                if self.monitor_ah is not None:
                    wr = WorkRequest.send(
                        payload=hb, inline=True, signaled=False, ah=self.monitor_ah
                    )
                    yield from self.device.post_send_timed(self.ctrl_qp, wr)
                    self.heartbeats_sent += 1
            for role in self.roles:
                if not role.server.alive:
                    continue
                if role.syncing:
                    # lost catch-up traffic must not wedge a promotion
                    yield from self._send_sync_catchups(role)
                elif role.is_primary and role.inflight:
                    yield from self._reship_oldest(role)
            yield sim.timeout(self.heartbeat_ns)

    def _reship_oldest(self, role):
        """Re-send the oldest uncommitted update to unacked peers.

        UPDATE loss is normally repaired by RC retransmission or by the
        receiver's gap-triggered CATCHUP, but a *trailing* loss (no
        later update reveals the gap) needs this timer-driven nudge.
        """
        seq = min(role.inflight)
        inf = role.inflight[seq]
        if self.sim.now - inf.shipped_ns < 2 * self.heartbeat_ns:
            return
        inf.shipped_ns = self.sim.now
        if inf.respond is None:
            client, window_slot, req_epoch = wire.MIG_CLIENT, 0, 0
        else:
            client, window_slot, req_epoch, _op = inf.respond
        payload = wire.encode_update(
            role.partition, self.replica_id, role.epoch, seq, inf.keyhash,
            inf.value, client, window_slot, req_epoch,
        )
        for peer in sorted(role.live_peers() - inf.ackers):
            yield from self.send_mesh(peer, payload)
