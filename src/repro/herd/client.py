"""A HERD client process (Sections 4.2-4.3).

Each client process owns:

* **one UC queue pair** connected to the server's initializer — all of
  its requests, to every server process, travel over this QP, so the
  server needs only NC connected QPs in total;
* **NS UD queue pairs** (one per server process) sharing a single
  receive CQ — before writing a request to server process *s*, the
  client posts a RECV to its *s*-th UD QP for the response.

The client keeps a window of W outstanding requests: it fills the
window, then issues one new operation per response (closed loop).
Requests are written to slot ``(s, c, sent_s mod W)``; because the
global window is also W, a slot is never reused before the server has
freed it.

Resilience (Section 2.2.3's "rare application-level retries", grown
into a full client-side policy for fault injection):

* overdue requests are re-WRITTEN with exponential backoff and
  deterministic jitter drawn from the client's own named RNG stream;
* the retry timeout optionally adapts to observed response times
  (Jacobson/Karels srtt + 4 * rttvar, with Karn's rule on samples);
* a per-op retry budget bounds the effort; abandoned ops *quarantine*
  their window slot so a late response cannot be matched to a newer
  request reusing the slot;
* when one server process is saturated or crashed, new ops for it are
  *parked* (bounded) and the client keeps issuing to the healthy
  partitions — per-core graceful degradation.

Replication (``HerdConfig.replication_factor > 1``, see docs/HA.md):
the client keeps one response lane (UD QP + RECV ring) per
(replica, partition) pair and writes each request into the *current
primary's* request region, looked up in a per-partition
:class:`~repro.ha.failover.ReplicaMap`.  A ``RESP_STALE_EPOCH`` nack or
a monitor config notification re-aims in-flight ops at the new primary
(same window slot, same slot epoch — the response path cannot tell a
replayed op from a first send) and un-parks the partition immediately.
With rf=1 every HA branch is dead and the classic layout is untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, List, Optional, Tuple

from collections import deque

from repro.sim import Event, Simulator
from repro.verbs import (
    CompletionQueue,
    QueuePair,
    RdmaDevice,
    RecvRequest,
    Transport,
    WorkRequest,
)
from repro.workloads.ycsb import Operation, OpType, WorkloadStream
from repro.herd.config import SLOT_BYTES, HerdConfig, route_key
from repro.herd.region import RequestRegion
from repro.herd.wire import (
    FRAME_STATUS,
    RESP_NOT_OWNER,
    RESP_RETRY_AFTER,
    RESP_STALE_EPOCH,
    decode_response,
    encode_get,
    encode_put,
    framing_of,
    parse_response,
)

#: observer called as fn(op, latency_ns, success, now)
ResponseHook = Callable[[Operation, float, bool, float], None]

#: verification observer called as fn(op, success, value, now) with the
#: decoded response payload (the chaos harness checks values with this)
PayloadHook = Callable[[Operation, bool, Optional[bytes], float], None]

#: per-response receive buffer: GRH + the slot/epoch prefix + the
#: largest response (one byte more under the status framing)
_RECV_SLOT = 40 + 2 + 1024

#: retry timeout multiplier per attempt: exponential backoff keeps
#: retry traffic from piling onto a struggling server
RETRY_BACKOFF = 2.0

#: the same for consecutive RESP_RETRY_AFTER nacks on one op
#: (:mod:`repro.qos`), and how many of them the client takes before
#: it rejects the op
RETRY_AFTER_BACKOFF = 2.0
RETRY_AFTER_BUDGET = 8

#: deterministic jitter: each retry deadline is stretched by up to this
#: fraction, drawn from the client's own named RNG stream, so retries
#: from many clients do not synchronise
RETRY_JITTER = 0.1


@dataclass
class _Pending:
    op: Operation
    sent_at: float
    server: int
    window_slot: int
    #: what the request WRITE carried, for application-level retries
    payload: bytes = b""
    raddr: int = 0
    last_sent: float = 0.0
    #: re-sends so far (bounded by the retry budget)
    attempts: int = 0
    #: sim time at which the retry watchdog may re-send this op
    deadline: float = 0.0
    #: the slot epoch this request carries (echoed by the server)
    epoch: int = 0
    #: which replica of the partition the request was last aimed at
    replica: int = 0
    #: consecutive RESP_RETRY_AFTER nacks (repro.qos backoff budget)
    nacks: int = 0


class HerdClientProcess:
    """One closed-loop client."""

    def __init__(
        self,
        client_id: int,
        device: RdmaDevice,
        config: HerdConfig,
        stream: WorkloadStream,
        retry_rng: Optional[random.Random] = None,
    ) -> None:
        self.client_id = client_id
        self.device = device
        self.sim: Simulator = device.sim
        self.profile = device.profile
        self.config = config
        self.stream = stream
        ns = config.n_server_processes
        rf = config.replication_factor
        self._ns = ns
        self._ha = rf > 1
        self._framing = framing_of(config)
        self._recv_slot = _RECV_SLOT + (1 if self._framing == FRAME_STATUS else 0)
        #: per-lane RECV ring depth; deeper under replication because
        #: stale nacks and replays consume extra buffers
        self._ring = (4 if self._ha else 2) * config.window
        self.recv_cq = CompletionQueue(self.sim, "c%d.recv" % client_id)
        #: lane r*NS+s carries responses from replica r of server
        #: process s (rf=1 degenerates to lane == server)
        self.ud_qps: List[QueuePair] = [
            device.create_qp(Transport.UD, recv_cq=self.recv_cq)
            for _ in range(rf * ns)
        ]
        self._lane_of_qpn: Dict[int, int] = {
            qp.qpn: lane for lane, qp in enumerate(self.ud_qps)
        }
        self.uc_qp: Optional[QueuePair] = None  # connected by the cluster
        #: set instead of a connection when requests ride DC transport
        self.dct_ah: Optional[Tuple[str, int]] = None
        self.region: Optional[RequestRegion] = None
        # HA wiring (left inert with rf=1): per-replica request regions
        # and UC QPs, the partition->primary map, and failover counters.
        self.ha_map = None  # ReplicaMap, set by the cluster when rf > 1
        self.ha_regions: List[RequestRegion] = []
        self.ha_uc_qps: List[QueuePair] = []
        #: elastic routing (repro.elastic): the client's copy of the
        #: shard map, or None for the classic static modulo mapping
        self.shard_map = None
        #: history observer for the linearizability checker, called as
        #: fn(kind, op, server, window_slot, epoch, success, value, now)
        #: with kind in {"invoke", "response", "stale"}
        self.ha_event_hook = None
        #: where each lane's responses land, ``_ring`` slots per lane
        self.recv_mr = device.register_memory(
            self._ring * len(self.ud_qps) * self._recv_slot
        )
        #: one staging slot per (partition, window slot): an un-inlined
        #: request's bytes leave host memory only when the NIC fetches
        #: them, so no *other* op may restage there meanwhile — a retry
        #: restages the same bytes, and a window slot holds one live op
        self._staging = device.register_memory(
            ns * config.window * SLOT_BYTES
        )
        self._recv_token = 0
        #: per-lane issue sequence; at most W requests per partition are
        #: outstanding, so sequence mod ``_ring`` can never alias a live
        #: receive buffer
        self._sent_to_server = [0] * (rf * ns)
        #: request-region slots not currently holding a pending request
        #: (a slot may only be rewritten after its response arrived)
        self._slot_free = [set(range(config.window)) for _ in range(ns)]
        #: slot -> epoch of abandoned ops: neither free nor pending,
        #: until the late response shows up and releases them
        self._quarantined: List[Dict[int, int]] = [{} for _ in range(ns)]
        #: per-slot reuse counter, embedded in requests and echoed in
        #: responses so stale duplicates cannot alias a reused slot
        self._slot_epoch = [[0] * config.window for _ in range(ns)]
        #: ops drawn from the stream whose partition had no free slot;
        #: issued as soon as a slot frees (graceful degradation)
        self._parked: List[Deque[Operation]] = [deque() for _ in range(ns)]
        #: ops parked over all partitions, kept in step wherever an op
        #: is parked or un-parked (almost always 0: the issue path asks
        #: once per op)
        self._parked_count = 0
        self._park_limit = 2 * config.window
        #: per-lane RECV buffer offsets in posting order: the NIC fills
        #: the oldest posted RECV, whichever request it answers
        self._recv_order: List[Deque[int]] = [deque() for _ in range(rf * ns)]
        self._pending: List[Deque[_Pending]] = [deque() for _ in range(ns)]
        self.outstanding = 0
        self.response_hook: Optional[ResponseHook] = None
        self.payload_hook: Optional[PayloadHook] = None
        #: when set, draw no new ops from the stream after this time
        #: (the chaos harness uses this to drain the windows)
        self.stop_after: Optional[float] = None
        #: open-loop mode (repro.qos): an ArrivalProcess that schedules
        #: request arrivals independently of completions.  None keeps
        #: the paper's closed loop.  Set before :meth:`start`.
        self.arrivals = None
        #: retry jitter / backoff randomness: a named child stream of
        #: the cluster seed, so retries never perturb workload draws
        self._rng = retry_rng if retry_rng is not None else random.Random(client_id)
        # adaptive timeout state (Jacobson/Karels)
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        # Observability (repro.obs): per-client response latency
        metrics = getattr(self.sim, "metrics", None)
        self._lat_hist = (
            None
            if metrics is None
            else metrics.histogram("herd.client%d.latency_ns" % client_id)
        )
        # counters
        self.issued = 0
        self.completed = 0
        self.get_misses = 0
        self.failures = 0
        self.retries = 0
        self.duplicate_responses = 0
        self.abandoned = 0
        self.late_responses = 0
        self.stale_nacks = 0
        self.replays = 0
        self.failovers = 0
        self.not_owner_nacks = 0
        self.reroutes = 0
        self.map_refreshes = 0
        # QoS / open-loop counters
        self.offered = 0
        self.overflow_dropped = 0
        self.retry_after_nacks = 0
        self.rejected = 0
        #: ingress pause armed by RESP_RETRY_AFTER (429 semantics: the
        #: hint throttles the *source*, not just the nacked request)
        self._nack_pause_until = 0.0
        self.nack_pause_drops = 0
        # Resilience events surfaced as registry *counters* (shared
        # across clients, unlike the per-client gauges): retry budgets
        # draining and slots entering quarantine were silent before.
        self._retries_exhausted_ctr = None
        self._slots_quarantined_ctr = None
        if metrics is not None:
            self._retries_exhausted_ctr = metrics.counter("client.retries_exhausted")
            self._slots_quarantined_ctr = metrics.counter("client.slots_quarantined")
            prefix = "herd.client%d." % client_id
            metrics.gauge_fn(prefix + "retries", lambda: self.retries)
            metrics.gauge_fn(
                prefix + "duplicate_responses", lambda: self.duplicate_responses
            )
            metrics.gauge_fn(prefix + "abandoned", lambda: self.abandoned)
            metrics.gauge_fn(prefix + "late_responses", lambda: self.late_responses)
            if self._ha:
                metrics.gauge_fn(prefix + "stale_nacks", lambda: self.stale_nacks)
                metrics.gauge_fn(prefix + "replays", lambda: self.replays)
                metrics.gauge_fn(prefix + "failovers", lambda: self.failovers)
                metrics.gauge_fn(prefix + "reroutes", lambda: self.reroutes)
            if config.qos is not None:
                metrics.gauge_fn(prefix + "offered", lambda: self.offered)
                metrics.gauge_fn(
                    prefix + "overflow_dropped", lambda: self.overflow_dropped
                )
                metrics.gauge_fn(
                    prefix + "retry_after_nacks", lambda: self.retry_after_nacks
                )
                metrics.gauge_fn(prefix + "rejected", lambda: self.rejected)

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.uc_qp is None or self.region is None:
            raise RuntimeError("client not wired to a cluster")
        if self.arrivals is not None:
            self.sim.process(
                self._open_loop(), name="herd-client-%d" % self.client_id
            )
            self.sim.process(
                self._responder(), name="herd-client-%d-resp" % self.client_id
            )
        else:
            self.sim.process(self.run(), name="herd-client-%d" % self.client_id)
        if self.config.retry_timeout_ns is not None:
            self.sim.process(
                self._retry_watchdog(), name="herd-client-%d-retry" % self.client_id
            )

    def run(self) -> Generator[Event, None, None]:
        for _ in range(self.config.window):
            yield from self._issue_next()
        while True:
            cqe = yield self.recv_cq.pop()
            yield self.sim.timeout(self.profile.cq_poll_ns)
            self._absorb(cqe)
            yield from self._issue_next()

    # -- open-loop mode (repro.qos) ------------------------------------

    def _open_loop(self) -> Generator[Event, None, None]:
        """Issue requests on the arrival process's schedule.

        Unlike the closed loop, arrivals do not wait for completions:
        when the window (and the bounded parking lot) for a partition
        is full, the arrival is *dropped at the client* and counted —
        the open-loop analogue of a full front-end queue.
        """
        while True:
            yield self.sim.timeout(self.arrivals.next_gap_ns(self.sim.now))
            if self.stop_after is not None and self.sim.now >= self.stop_after:
                return
            self.offered += 1
            if self.sim.now < self._nack_pause_until:
                # A RESP_RETRY_AFTER nack pauses this client's intake:
                # fresh arrivals are shed at the ingress for free — no
                # slot claimed, no WRITE sent, no server cycle burned.
                # The already-nacked ops act as the probes; their
                # admission is what lifts the pause's renewal.
                self.nack_pause_drops += 1
                continue
            op = self.stream.next_op()
            server = route_key(op.key, self._ns, self.shard_map)
            if self._slot_free[server]:
                yield from self._send_op(op, server)
            elif len(self._parked[server]) < self._park_limit:
                self._parked[server].append(op)
                self._parked_count += 1
            else:
                self.overflow_dropped += 1

    def _responder(self) -> Generator[Event, None, None]:
        """Absorb responses and drain parked arrivals into freed slots."""
        while True:
            cqe = yield self.recv_cq.pop()
            yield self.sim.timeout(self.profile.cq_poll_ns)
            self._absorb(cqe)
            if self._parked_count:
                for server in range(self._ns):
                    yield from self._drain_parked(server)

    # ------------------------------------------------------------------

    def _issue_next(self) -> Generator[Event, None, None]:
        # Parked ops first: the oldest op whose partition has a slot
        # again (its server recovered, or a response freed a slot).
        if self._parked_count:
            for server in range(self._ns):
                if self._parked[server] and self._slot_free[server]:
                    self._parked_count -= 1
                    yield from self._send_op(self._parked[server].popleft(), server)
                    return
        if self.stop_after is not None and self.sim.now >= self.stop_after:
            return  # draining: no new work
        while True:
            if self._parked_count >= self._park_limit:
                # Every partition we have drawn work for is saturated
                # (e.g. its server process crashed).  Hold off; the
                # next completion re-enters this path.
                return
            op = self.stream.next_op()
            server = route_key(op.key, self._ns, self.shard_map)
            if self._slot_free[server]:
                yield from self._send_op(op, server)
                return
            # This partition is saturated: park the op and keep the
            # closed loop running against the healthy partitions.
            self._parked[server].append(op)
            self._parked_count += 1

    def _drain_parked(self, server: int) -> Generator[Event, None, None]:
        """Issue ``server``'s parked ops while it has free slots."""
        parked = self._parked[server]
        while parked and self._slot_free[server]:
            self._parked_count -= 1
            yield from self._send_op(parked.popleft(), server)

    def _send_op(self, op: Operation, server: int) -> Generator[Event, None, None]:
        free = self._slot_free[server]
        window_slot = min(free)
        free.discard(window_slot)

        # 1. Pre-post the RECV for the response (Section 4.3) on the
        #    lane of the partition's current primary replica.
        replica = self.ha_map.primary[server] if self._ha else 0
        lane = replica * self._ns + server

        framing = self._framing
        epoch = 0
        if framing:
            epoch = (self._slot_epoch[server][window_slot] + 1) & 0xFF
            self._slot_epoch[server][window_slot] = epoch
        payload = (
            encode_get(op.key, framing, epoch)
            if op.op is OpType.GET
            else encode_put(op.key, op.value, framing, epoch)
        )
        region = self.ha_regions[replica] if self._ha else self.region
        slot_addr = region.slot_addr(server, self.client_id, window_slot)
        raddr = slot_addr + SLOT_BYTES - len(payload)

        # Atomic bookkeeping: the QP post, the posting-order mirror,
        # and (with retries) the pending record all land in one
        # instant, with no yield in between.  The mirror must match the
        # order the NIC sees — another process (the responder re-arming
        # a RECV after a nack or duplicate) may run inside any yield
        # window, and appending around one would record a posting
        # order the NIC never saw.  The pending record joins at the
        # same instant so the RECV-accounting invariant
        # (len(recv_order) == len(pending) + len(quarantined)) holds
        # at every yield point; no response can match it before the
        # WRITE below is posted because matching requires this slot
        # epoch, and the deadline stays infinite until the WRITE is
        # out so the retry watchdog ignores the half-sent op.
        self._arm_recv(lane)
        now = self.sim.now
        record = _Pending(
            op,
            now,
            server,
            window_slot,
            payload=payload,
            raddr=raddr,
            last_sent=now,
            deadline=float("inf"),
            epoch=epoch,
            replica=replica,
        )
        if framing:
            self._pending[server].append(record)
        self.outstanding += 1
        self.issued += 1
        # post_recv_timed's cost, inlined so the block above stays atomic
        yield self.sim.timeout(self.device.profile.post_recv_ns)
        yield self.device.machine.pcie.doorbell()

        # 2. WRITE the request into the server's request region.
        uc_qp, wr = self._request_wr(record)
        if not wr.inline:
            yield self.sim.timeout(len(payload) / self.profile.memcpy_bytes_per_ns)
        yield from self.device.post_send_timed(uc_qp, wr)
        now = self.sim.now
        # The WRITE is on the wire: start the retry clock.
        record.sent_at = now
        record.last_sent = now
        record.deadline = now + (self._rto() or 0.0)
        if not framing:
            # Without retries completions pop the pending queue FIFO,
            # so the record joins in WRITE-posting order, not issue
            # order.
            self._pending[server].append(record)
        if self.ha_event_hook is not None:
            self.ha_event_hook(
                "invoke", op, server, window_slot, epoch, None, None, now
            )

    def _arm_recv(self, lane: int) -> None:
        """Post and mirror a RECV at ``lane``'s next ring offset.

        Every RECV — a first send's, a replay's, or one re-armed after a
        duplicate or a nack — takes its buffer from this rotation: a
        re-arm at the consumed offset could collide with a later send's
        rotation while the op waits, aiming two RECVs at one buffer.
        """
        token = self._recv_token
        self._recv_token += 1
        seq = self._sent_to_server[lane]
        self._sent_to_server[lane] = seq + 1
        offset = (seq % self._ring) * self._recv_slot * len(self.ud_qps)
        offset += lane * self._recv_slot
        self.device.post_recv(
            self.ud_qps[lane],
            RecvRequest(wr_id=token, local=(self.recv_mr, offset, self._recv_slot)),
        )
        self._recv_order[lane].append(offset)

    @staticmethod
    def _take_by_slot(
        pending: Deque[_Pending], window_slot: int, epoch: int
    ) -> Optional[_Pending]:
        """Remove and return the pending record a response answers.

        Both the slot and its epoch must match: a mismatched epoch
        means the response belongs to an older incarnation of the slot
        (a stale duplicate) and must not complete the current op.
        """
        for record in pending:
            if record.window_slot == window_slot and record.epoch == epoch:
                pending.remove(record)
                return record
        return None

    # -- retries -------------------------------------------------------

    def _rto(self) -> Optional[float]:
        """The current base retry timeout (before backoff)."""
        cfg = self.config
        if cfg.retry_timeout_ns is None:
            return None
        if cfg.adaptive_retry and self._srtt is not None:
            return max(
                cfg.min_retry_timeout_ns, self._srtt + 4.0 * self._rttvar
            )
        return cfg.retry_timeout_ns

    def _observe_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample

    def _retry_watchdog(self) -> Generator[Event, None, None]:
        """Re-WRITE requests whose responses are overdue.

        A lost request leaves its slot keyhash zeroed at the server
        forever; a lost response leaves the client waiting with its
        RECV still posted.  Re-writing the request repairs both: the
        server (re-)executes and responds into the already-posted
        RECV.  MICA PUTs are idempotent here (same key, same bytes).
        """
        cfg = self.config
        while True:
            base = max(cfg.min_retry_timeout_ns, self._rto())
            yield self.sim.timeout(base / 2.0)
            now = self.sim.now
            # Collect first (posting yields, and completions may mutate
            # the pending queues while we wait).
            overdue = [
                record
                for queue in self._pending
                for record in queue
                if now >= record.deadline
            ]
            for record in overdue:
                if not any(record in queue for queue in self._pending):
                    continue  # completed while we were retransmitting
                if (
                    cfg.retry_budget is not None
                    and record.attempts >= cfg.retry_budget
                ):
                    if (
                        self._ha
                        and record.replica != self.ha_map.primary[record.server]
                    ):
                        # The budget drained against a dead or demoted
                        # replica: redirect instead of giving up.
                        yield from self._replay(record)
                        continue
                    if self._retries_exhausted_ctr is not None:
                        self._retries_exhausted_ctr.inc()
                    self._abandon(record)
                    continue
                record.attempts += 1
                self.retries += 1
                backoff = RETRY_BACKOFF ** record.attempts
                jitter = 1.0 + RETRY_JITTER * self._rng.random()
                record.deadline = self.sim.now + self._rto() * backoff * jitter
                record.last_sent = self.sim.now
                yield from self.device.post_send_timed(*self._request_wr(record))

    def _request_wr(self, record: _Pending) -> Tuple[QueuePair, WorkRequest]:
        """The QP and WRITE that (re-)send a pending record's request
        bytes to its replica.

        Above the inline limit the bytes go out of the op's own staging
        slot (see __init__), written here; a first send charges that
        memcpy, a retry restaging the same bytes does not.
        """
        cfg = self.config
        region = self.ha_regions[record.replica] if self._ha else self.region
        uc_qp = self.ha_uc_qps[record.replica] if self._ha else self.uc_qp
        if len(record.payload) <= self.profile.max_inline:
            return uc_qp, WorkRequest.write(
                raddr=record.raddr, rkey=region.mr.rkey,
                payload=record.payload, inline=True, signaled=False,
                ah=self.dct_ah,
            )
        offset = (record.server * cfg.window + record.window_slot) * SLOT_BYTES
        self._staging.write(offset, record.payload)
        return uc_qp, WorkRequest.write(
            raddr=record.raddr, rkey=region.mr.rkey,
            local=(self._staging, offset, len(record.payload)),
            signaled=False, ah=self.dct_ah,
        )

    # -- failover (replication only) -----------------------------------

    def ha_on_config(
        self, partition: int, primary: Optional[int], epoch: int
    ) -> None:
        """Monitor notification: adopt the config, re-aim, un-park."""
        if not self._ha or primary is None:
            return
        if not self.ha_map.update(partition, primary, epoch):
            return  # stale/duplicate, or an epoch bump with no move
        self.failovers += 1
        self.sim.process(
            self._failover(partition),
            name="herd-client-%d-failover" % self.client_id,
        )

    def _failover(self, server: int) -> Generator[Event, None, None]:
        """Replay in-flight ops at the new primary, then un-park.

        Lease-aware parking: a promotion re-opens the partition
        immediately — the backlog is issued against the new primary
        without waiting for a successful probe.
        """
        replica = self.ha_map.primary[server]
        for record in list(self._pending[server]):
            if record.replica != replica:
                yield from self._replay(record)
        yield from self._drain_parked(server)

    def _replay(self, record: _Pending) -> Generator[Event, None, None]:
        """Re-aim a pending request at its partition's current primary.

        A fresh RECV goes on the new replica's lane and the request
        bytes are re-WRITTEN into the new primary's request region —
        same window slot, same slot epoch, so the response path cannot
        tell a replayed op from a first send.  The retry clock restarts
        (redirecting is not evidence of loss on the new path).
        """
        server = record.server
        if record not in self._pending[server]:
            return  # completed (or abandoned) in the meantime
        replica = self.ha_map.primary[server]
        if record.replica == replica:
            return  # already re-aimed by a racing stale nack
        record.replica = replica
        self.replays += 1
        # posted and mirrored before the timed yield (see _send_op)
        self._arm_recv(replica * self._ns + server)
        # post_recv_timed's cost
        yield self.sim.timeout(self.device.profile.post_recv_ns)
        yield self.device.machine.pcie.doorbell()
        region = self.ha_regions[replica]
        record.raddr = (
            region.slot_addr(server, self.client_id, record.window_slot)
            + SLOT_BYTES
            - len(record.payload)
        )
        now = self.sim.now
        record.last_sent = now
        record.attempts = 0
        record.deadline = now + (self._rto() or 0.0)
        yield from self.device.post_send_timed(*self._request_wr(record))

    def _abandon(self, record: _Pending) -> None:
        """Give up on an op whose retry budget is spent.

        The window slot is *quarantined*, not freed: the server may
        still execute a retry in flight and respond later, and that
        response must not be matched to a newer op reusing the slot.
        A late response releases the quarantine; under permanent loss
        the slot stays retired (degraded but safe).
        """
        queue = self._pending[record.server]
        if record in queue:
            queue.remove(record)
        self.outstanding -= 1
        self.abandoned += 1
        self._quarantined[record.server][record.window_slot] = record.epoch
        if self._slots_quarantined_ctr is not None:
            self._slots_quarantined_ctr.inc()

    # -- completion ----------------------------------------------------

    def _absorb(self, cqe) -> None:
        lane = self._lane_of_qpn[cqe.qpn]
        server = lane % self._ns
        pending = self._pending[server]
        # The data landed in the *oldest posted* RECV buffer: RECVs are
        # consumed FIFO whichever request is answered.
        offset = self._recv_order[lane].popleft()
        slot, epoch, status, payload = parse_response(
            self._framing, self.recv_mr.read(offset + 40, cqe.byte_len)
        )
        if slot is None:
            # Without retries per-server responses are FIFO, so the
            # oldest pending record is the one being answered.
            record = pending.popleft()
        else:
            # With retries a dropped request reorders per-server
            # completions, so responses name their window slot.
            record = self._take_by_slot(pending, slot, epoch)
            if record is None:
                if self._quarantined[server].get(slot) == epoch:
                    # The answer to an op we had abandoned: release the
                    # quarantined slot.  This response consumed the
                    # RECV the abandoned op posted, so the RECV
                    # accounting is already balanced — no replenish.
                    del self._quarantined[server][slot]
                    self._slot_free[server].add(slot)
                    self.late_responses += 1
                    return
                # A duplicate response (retry raced the original).  Put
                # a fresh RECV in place of the one this duplicate ate so
                # the still-pending request it belonged to can complete.
                self.duplicate_responses += 1
                self._arm_recv(lane)
                return
            if status == RESP_STALE_EPOCH:
                self._on_stale_nack(record, lane)
                return
            if status == RESP_NOT_OWNER:
                self._on_not_owner(record, lane)
                return
            if status == RESP_RETRY_AFTER:
                self._on_retry_after(record, lane)
                return
        self.outstanding -= 1
        self.completed += 1
        self._slot_free[server].add(record.window_slot)
        latency = self.sim.now - record.sent_at
        if record.attempts == 0:
            # Karn's rule: only un-retried ops give unambiguous samples.
            self._observe_rtt(latency)
        if self._lat_hist is not None:
            self._lat_hist.observe(latency)
        success, value = decode_response(record.op.op, payload)
        if record.op.op is OpType.GET and not success:
            self.get_misses += 1
        elif not success:
            self.failures += 1
        if self.response_hook is not None:
            self.response_hook(record.op, latency, success, self.sim.now)
        if self.payload_hook is not None:
            self.payload_hook(record.op, success, value, self.sim.now)
        if self.ha_event_hook is not None:
            self.ha_event_hook(
                "response", record.op, server, record.window_slot,
                record.epoch, success, value, self.sim.now,
            )

    def _on_stale_nack(self, record: _Pending, lane: int) -> None:
        """A replica refused the request: it no longer owns the partition.

        The op stays pending (it was never executed) and is re-aimed at
        the primary the replica map currently names.  If the map still
        points at the nacker — the monitor's CONFIG hasn't reached us —
        the consumed RECV is re-armed so a retry or the eventual replay
        still has a buffer, and the config notification triggers the
        actual move.
        """
        self.stale_nacks += 1
        now = self.sim.now
        record.deadline = now + (self._rto() or 0.0)
        self._pending[record.server].append(record)
        if self.ha_event_hook is not None:
            self.ha_event_hook(
                "stale", record.op, record.server, record.window_slot,
                record.epoch, None, None, now,
            )
        if record.replica != self.ha_map.primary[record.server]:
            self.sim.process(
                self._replay(record),
                name="herd-client-%d-replay" % self.client_id,
            )
        else:
            self._arm_recv(lane)

    # -- overload nacks (repro.qos) ------------------------------------

    def _on_retry_after(self, record: _Pending, lane: int) -> None:
        """The server shed this request: back off before re-sending.

        The op was never executed (the nack is the whole answer) and
        the server cleared its slot.  Within the nack budget the op
        stays pending with a deliberately *late* deadline — base
        ``retry_after_ns`` growing exponentially per consecutive nack,
        jittered from the client's own RNG stream — and the retry
        watchdog performs the deferred re-send.  Past the budget the op
        is rejected outright: slot freed (nothing is in flight, so no
        quarantine is needed) and the RECV this nack consumed is not
        replaced, keeping the ring accounting exact.
        """
        qos = self.config.qos
        self.retry_after_nacks += 1
        record.nacks += 1
        now = self.sim.now
        jitter = 1.0 + RETRY_JITTER * self._rng.random()
        # 429 semantics: the hint throttles the whole source.  Fresh
        # open-loop arrivals are shed at the ingress until the pause
        # expires, so a saturated server is not burning cycles nacking
        # a fleet that will only be nacked again.  The pause is the
        # *base* hint (jittered, not per-op exponential): each client
        # keeps probing roughly once per retry_after_ns, which is what
        # lets the fleet discover recovered capacity quickly.
        self._nack_pause_until = max(
            self._nack_pause_until, now + qos.retry_after_ns * jitter
        )
        if record.nacks >= RETRY_AFTER_BUDGET:
            self.rejected += 1
            self.abandoned += 1  # keeps the accounting identity closed
            self.outstanding -= 1
            self._slot_free[record.server].add(record.window_slot)
            return
        self._arm_recv(lane)
        backoff = RETRY_AFTER_BACKOFF ** (record.nacks - 1)
        record.attempts = 0
        record.deadline = now + qos.retry_after_ns * backoff * jitter
        self._pending[record.server].append(record)

    # -- elastic resharding (repro.elastic) ----------------------------

    def elastic_on_map(self, shard_map) -> None:
        """Coordinator notification: adopt a newer shard map.

        Version-fenced like :meth:`ha_on_config` epochs — a delayed
        publication can never roll routing back.  In-flight and parked
        ops are *not* proactively re-aimed: a mis-routed one earns a
        ``RESP_NOT_OWNER`` nack and reroutes through
        :meth:`_on_not_owner`.
        """
        if self.shard_map is None or shard_map.version > self.shard_map.version:
            self.shard_map = shard_map
            self.map_refreshes += 1

    def _on_not_owner(self, record: _Pending, lane: int) -> None:
        """The partition no longer owns the key's range: re-route.

        The op was never executed there (the nack is the whole answer),
        so it is withdrawn from this partition — slot freed, accounting
        reversed — and parked at the owner the current map names, to be
        re-issued as a fresh request.  If our map still names the
        nacking partition (its publication is in flight to us), the op
        stays pending here with a re-armed RECV; the retry path tries
        again and reroutes once the map lands.
        """
        self.not_owner_nacks += 1
        now = self.sim.now
        server = record.server
        owner = route_key(record.op.key, self._ns, self.shard_map)
        if self.ha_event_hook is not None:
            self.ha_event_hook(
                "reroute", record.op, server, record.window_slot,
                record.epoch, None, None, now,
            )
        if owner != server:
            self._slot_free[server].add(record.window_slot)
            self.outstanding -= 1
            self.issued -= 1
            self.reroutes += 1
            self._parked[owner].appendleft(record.op)
            self._parked_count += 1
            return
        record.deadline = now + (self._rto() or 0.0)
        self._pending[server].append(record)
        self._arm_recv(lane)
