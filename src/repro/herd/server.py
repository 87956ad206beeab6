"""A HERD server process: poll, execute, respond (Sections 4.1-4.3).

Each server process is pinned to one core, owns one MICA partition
(EREW — exclusive read and write), and uses exactly one UD queue pair
for every response it sends.  Its loop:

1. poll the per-client request chunks for a non-zero keyhash (or,
   with ``request_transport="UD"``, its RECV ring's completion queue);
2. issue a prefetch for the new request's index bucket, advance the
   request pipeline, and push the new request in;
3. execute the pipeline's completed request against MICA (its memory
   accesses are cache-resident thanks to the prefetches);
4. ``post_send()`` the response as an *unsignaled* SEND over UD —
   new incoming requests double as completion notification for old
   responses — inlined when the value is small, from a staging buffer
   above the inline cutoff (144 B on Apt);
5. zero the slot's keyhash so the client can reuse it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Generator, List, Optional, Tuple

from repro.kv.mica import MicaCache
from repro.sim import Event, Simulator
from repro.verbs import QueuePair, RdmaDevice, StagingRing, Transport, WorkRequest
from repro.workloads.ycsb import Operation, OpType
from repro.herd.config import HerdConfig
from repro.herd.pipeline import RequestPipeline
from repro.herd.region import RecvRing, RequestRegion
from repro.herd.wire import (
    RESP_NOT_OWNER,
    RESP_OK,
    RESP_RETRY_AFTER,
    RESP_STALE_EPOCH,
    encode_response,
    frame_response,
    framing_of,
)

#: MICA's most random memory accesses per op: the request pipeline's
#: depth (Section 4.1.1)
PIPELINE_DEPTH = 2

#: consecutive empty poll iterations before a no-op flushes the
#: request pipeline (Section 4.1.1)
NOOP_AFTER_POLLS = 100

#: a request travelling through the pipeline:
#: (client, window slot, op, request epoch)
PipelineEntry = Tuple[int, int, Operation, int]

#: observer called as fn(client_id, op, now) when a response is posted
CompletionHook = Callable[[int, Operation, float], None]


class HerdServerProcess:
    """One polling server core."""

    def __init__(
        self,
        index: int,
        device: RdmaDevice,
        region: Optional[RequestRegion],
        config: HerdConfig,
        client_ahs: List[Tuple[str, int]],
    ) -> None:
        self.index = index
        self.device = device
        self.sim: Simulator = device.sim
        self.profile = device.profile
        self.config = config
        #: response address handles, indexed by client id
        self.client_ahs = client_ahs
        # Where requests land, chosen once: the inbox the loop blocks on,
        # the CPU cost of taking one request out of it, ``_take`` (an
        # arrival -> (client, window slot, op, request epoch), or None),
        # ``_release`` (after the response is posted), ``_drop`` (an
        # arrival a crashed incarnation held) and ``_rescan`` (recovery).
        if config.request_transport == "UD":
            ring = RecvRing(device, config, len(client_ahs), "s%d.requests" % index)
            self.ud_qp: QueuePair = ring.qp
            self.inbox = ring.inbox
            #: a CQ poll finds a SEND at once: no polling pass to wait out
            self._poll_slots = 0
            self._take_ns = self.profile.cq_poll_ns + self.profile.post_recv_ns
            self._take = ring.take
            self._release = ring.release
            self._drop = ring.drop
            self._rescan = ring.rescan
        else:
            self.ud_qp = device.create_qp(Transport.UD)
            self.inbox = region.arrivals[index]
            #: request-region slots one polling pass checks
            self._poll_slots = region.n_clients * config.window
            #: the poll iteration that found the slot, and the decode
            self._take_ns = 4 * self.profile.poll_check_ns
            self._take = partial(region.take, index)
            self._release = partial(region.clear_slot, index)
            self._drop = region.drop
            self._rescan = partial(region.rescan, index)
        self.store = MicaCache(config.index_entries, config.log_bytes)
        self.pipeline: RequestPipeline[PipelineEntry] = RequestPipeline(PIPELINE_DEPTH)
        self._staging = StagingRing(device, 1 << 16)
        self.completion_hook: Optional[CompletionHook] = None
        #: replication role (repro.ha.ReplicaRole) when this process
        #: serves a replicated partition; None = classic HERD
        self.ha_role = None
        #: admission controller (repro.qos.PartitionAdmission) when the
        #: cluster runs with overload protection; None = admit everything
        self.admission = None
        self._framing = framing_of(config)
        #: memory time of one MICA access: prefetched accesses hit cache
        self.access_ns = (
            self.profile.prefetch_hit_ns if config.prefetch else self.profile.dram_ns
        )
        #: liveness: False between :meth:`crash` and :meth:`recover`.
        #: The request region and the MICA partition live in shared
        #: memory (HERD maps both with ``shmget``), so only the
        #: process's volatile state — its pipeline and its position in
        #: the polling loop — dies with it.
        self.alive = True
        #: bumped by :meth:`crash`; a stale polling loop notices its
        #: epoch is old at the next yield boundary and exits
        self.epoch = 0
        self._waiting_get = None
        # counters
        self.gets = 0
        self.puts = 0
        self.get_hits = 0
        self.responses = 0
        self.noops_pushed = 0
        self.crashes = 0
        self.recoveries = 0
        self.recovered_slots = 0
        self.shed = 0
        # Observability (repro.obs)
        metrics = getattr(self.sim, "metrics", None)
        self._occupancy = None
        if metrics is not None:
            prefix = "herd.server%d." % index
            metrics.gauge_fn(prefix + "gets", lambda: self.gets)
            metrics.gauge_fn(prefix + "puts", lambda: self.puts)
            metrics.gauge_fn(prefix + "get_hits", lambda: self.get_hits)
            metrics.gauge_fn(prefix + "responses", lambda: self.responses)
            metrics.gauge_fn(prefix + "noops", lambda: self.noops_pushed)
            metrics.gauge_fn(prefix + "crashes", lambda: self.crashes)
            metrics.gauge_fn(prefix + "recoveries", lambda: self.recoveries)
            metrics.gauge_fn(prefix + "recovered_slots", lambda: self.recovered_slots)
            metrics.gauge_fn(prefix + "shed", lambda: self.shed)
            self._occupancy = metrics.histogram(prefix + "pipeline_occupancy")

    # ------------------------------------------------------------------

    def start(self) -> None:
        self.sim.process(self.run(self.epoch), name="herd-server-%d" % self.index)

    # -- crash / recovery ----------------------------------------------

    def crash(self) -> bool:
        """Kill the server process (returns False if already dead).

        The polling loop's generator is abandoned: its blocked arrival
        getter is withdrawn (so queued notifications are not handed to
        a corpse), and any resumption from a pending timeout sees the
        bumped epoch and exits.  A request caught mid-execution may
        still get its response out — exactly the ambiguity a real crash
        leaves, and why recovery re-scans the region rather than trust
        any process-local record.
        """
        if not self.alive:
            return False
        self.alive = False
        self.epoch += 1
        self.crashes += 1
        if self._waiting_get is not None:
            self.inbox.cancel(self._waiting_get)
            self._waiting_get = None
        if self.ha_role is not None:
            self.ha_role.on_crash()
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            tracer.mark("herd-server-%d" % self.index, "crash")
        return True

    def recover(self) -> bool:
        """Restart a crashed server process (False if it is alive).

        The new process re-attaches the shared request region and MICA
        partition, discards stale arrival notifications, and re-scans
        its region chunk: every slot whose keyhash is still non-zero is
        an unanswered request — written before the crash or while the
        process was down (RDMA WRITEs land without the CPU) — and is
        re-queued for service.  Re-execution is safe: GETs are
        read-only and HERD PUTs are idempotent, and the client dedups
        the rare duplicate response by window slot.  SEND requests
        still queued in the RECV ring's CQ are served the same way;
        those the dead process had popped are lost, and re-sent by their
        clients' retries.
        """
        if self.alive:
            return False
        self.alive = True
        self.epoch += 1
        self.recoveries += 1
        self.pipeline = RequestPipeline(PIPELINE_DEPTH)
        live = self._rescan()
        self.recovered_slots += live
        # Charge one full polling pass for the scan itself.
        scan_ns = self._poll_slots * self.profile.poll_check_ns
        if self.ha_role is not None:
            self.ha_role.on_recover()
        self.sim.process(
            self.run(self.epoch, warmup_ns=scan_ns),
            name="herd-server-%d.e%d" % (self.index, self.epoch),
        )
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            tracer.mark(
                "herd-server-%d" % self.index,
                "recovered (%d live slots)" % live,
            )
        return True

    def run(self, epoch: int, warmup_ns: float = 0.0) -> Generator[Event, None, None]:
        """The polling loop (for one process incarnation)."""
        sim = self.sim
        p = self.profile
        arrivals = self.inbox
        flush_spin_ns = NOOP_AFTER_POLLS * p.poll_check_ns
        if warmup_ns:
            yield sim.timeout(warmup_ns)
        while self.epoch == epoch:
            item = arrivals.try_get()
            if item is None and self.pipeline:
                # Requests are stuck in the pipeline: spin for the
                # paper's 100 poll iterations, then push a no-op.
                yield sim.timeout(flush_spin_ns)
                if self.epoch != epoch:
                    return
                item = arrivals.try_get()
                if item is None:
                    self.noops_pushed += 1
                    yield from self._complete(self.pipeline.push(None), epoch)
                    continue
            if item is None:
                # Fully idle: block until a request lands, then charge
                # the round-robin detection delay (half a polling pass).
                event = arrivals.get()
                self._waiting_get = event
                item = yield event
                self._waiting_get = None
                if self.epoch != epoch:
                    self._drop(item)  # crashed while blocked
                    return
                yield sim.timeout(self._detect_delay_ns())
                if self.epoch != epoch:
                    self._drop(item)
                    return
            yield from self._serve(item, epoch)

    def _detect_delay_ns(self) -> float:
        return self._poll_slots * self.profile.poll_check_ns / 2.0

    # ------------------------------------------------------------------

    def _serve(self, item, epoch: int) -> Generator[Event, None, None]:
        sim = self.sim
        p = self.profile
        yield sim.timeout(self._take_ns)
        if self.epoch != epoch:
            self._drop(item)  # crashed mid-poll
            return
        request = self._take(item)
        if request is None:
            return  # spurious wakeup: slot already consumed
        client, window_slot, op, req_epoch = request
        if self.admission is not None:
            # QoS-stamped arrivals are (client, window_slot, arrived_ns)
            # 3-tuples; recovery re-scan items stay 2-tuples (sojourn 0).
            arrived = item[2] if len(item) > 2 else sim.now
            backlog = len(self.inbox) + len(self.pipeline)
            verdict = self.admission.on_request(
                client, sim.now, sim.now - arrived, backlog
            )
            if verdict is not None:
                yield from self._shed(client, window_slot, req_epoch, epoch)
                return
        if self.config.prefetch:
            # Issue the prefetch for this request's index bucket; it
            # completes while we respond to the pipeline's oldest entry.
            yield sim.timeout(p.prefetch_issue_ns)
            if self.epoch != epoch:
                return
        completed = self.pipeline.push((client, window_slot, op, req_epoch))
        if self._occupancy is not None:
            self._occupancy.observe(len(self.pipeline))
        yield from self._complete(completed, epoch)

    def _complete(self, entry: Optional[PipelineEntry], epoch: int):
        """The generator that serves the pipeline's completed ``entry``,
        returned rather than delegated to: each response's events then
        pass through one generator fewer."""
        if entry is None:
            return ()
        if self.ha_role is not None:
            return self._complete_ha(entry, epoch)
        return self._execute(*entry, epoch)

    def _execute(
        self, client: int, window_slot: int, op: Operation, req_epoch: int, epoch: int
    ) -> Generator[Event, None, None]:
        """Run ``op`` against the MICA partition (real bytes) and count
        it, now; return the :meth:`answer` that responds, charged the
        op's memory accesses.

        A crash after executing but before responding may leave a PUT
        in the store; re-execution after recovery is idempotent, so the
        re-scan repairs this cleanly.
        """
        if op.op is OpType.GET:
            self.gets += 1
            value = self.store.get(op.key)
            if value is not None:
                self.get_hits += 1
        else:
            self.puts += 1
            self.store.put(op.key, op.value)
            value = None
        return self.answer(
            client, window_slot, op, req_epoch, RESP_OK, epoch, value,
            self.store.last_op_accesses * self.access_ns,
        )

    # -- overload shedding (repro.qos) ---------------------------------

    def _shed(
        self, client: int, window_slot: int, req_epoch: int, epoch: int
    ) -> Generator[Event, None, None]:
        """Shed one admitted-region request under overload.

        The server answers with a prefix-only RESP_RETRY_AFTER so the
        client backs off deliberately, then clears the slot — the shed
        request is gone, and the client's re-send lands as a fresh
        arrival.  Sheds are *not* responses: they bypass
        ``completion_hook`` and the response counter, so goodput
        accounting only sees served work.
        """
        self.shed += 1
        payload = frame_response(
            self._framing, window_slot, req_epoch, RESP_RETRY_AFTER, b""
        )
        yield from self._respond(client, payload, epoch)
        if self.epoch != epoch:
            return
        self._release(client, window_slot)

    # -- replicated-partition serve path (repro.ha) --------------------

    def _complete_ha(
        self, entry: PipelineEntry, epoch: int
    ) -> Generator[Event, None, None]:
        """Serve one request under a replication role.

        GETs read committed state (parking behind an uncommitted PUT on
        the same key); PUTs are sequenced and shipped to the backups,
        acked later at commit.  A replica that is not the serving
        primary nacks with STALE_EPOCH so the client fails over; a
        primary without a current lease (or still syncing after
        promotion) holds the request until its verdict resolves.
        """
        sim = self.sim
        role = self.ha_role
        client, window_slot, op, req_epoch = entry
        verdict = role.serving_verdict(sim.now)
        while verdict == "hold":
            yield sim.timeout(role.hold_retry_ns)
            if self.epoch != epoch:
                return
            verdict = role.serving_verdict(sim.now)
        if verdict == "stale":
            yield from self.answer(
                client, window_slot, op, req_epoch, RESP_STALE_EPOCH, epoch
            )
            return
        if op.op is not OpType.GET:
            # PUT dedup runs *before* the ownership verdict: a retry of
            # a PUT this group already applied must be re-acked here —
            # even if the range has since migrated away — because the
            # ack answers the original committed execution.  Nacking it
            # NOT_OWNER would re-execute the write at the new owner: a
            # second linearization point for a write other clients may
            # already have observed interleaved with newer values.
            if (client, window_slot, req_epoch) in role.pending_client:
                return  # a retry of a PUT already replicating; ack at commit
            if role.completed.get((client, window_slot)) == req_epoch:
                yield from self.answer(
                    client, window_slot, op, req_epoch, RESP_OK, epoch,
                    ack_epoch=role.epoch,
                )
                return
        everdict = role.elastic_verdict(op.key)
        while everdict == "hold":
            # the key's range is frozen for a migration cutover: hold
            # until the map moves (-> not_owner) or the move aborts
            yield sim.timeout(role.hold_retry_ns)
            if self.epoch != epoch:
                return
            if role.serving_verdict(sim.now) == "stale":
                yield from self.answer(
                    client, window_slot, op, req_epoch, RESP_STALE_EPOCH, epoch
                )
                return
            everdict = role.elastic_verdict(op.key)
        if everdict == "not_owner":
            yield from self.answer(
                client, window_slot, op, req_epoch, RESP_NOT_OWNER, epoch
            )
            return
        if op.op is OpType.GET:
            if op.key in role.uncommitted:
                # an uncommitted PUT to this key is in flight: serving
                # the old value now and the ack later could expose a
                # non-linearizable read; park until the commit
                role.defer_get(client, window_slot, req_epoch, op)
                return
            yield from self._execute(client, window_slot, op, req_epoch, epoch)
            return
        self.puts += 1
        yield from role.stage_update(client, window_slot, req_epoch, op)

    def answer(
        self,
        client: int,
        window_slot: int,
        op: Operation,
        req_epoch: int,
        status: int,
        epoch: int,
        value: Optional[bytes] = None,
        extra_ns: float = 0.0,
        ack_epoch: Optional[int] = None,
    ) -> Generator[Event, None, None]:
        """Answer one request: charge ``extra_ns``, post the framed
        response, then free the slot, count the response and report it.

        Every served request leaves through here (a shed is not served:
        see :meth:`_shed`).  It runs inline on the server core or as a
        spawned process (commit-time acks come from the replication
        node); both are fenced by the process epoch, so a crashed
        incarnation cannot answer, and a crash while the response is
        staged or posted leaves the slot for the post-recovery re-scan.
        """
        sim = self.sim
        if self.epoch != epoch or not self.alive:
            return
        if extra_ns:
            yield sim.timeout(extra_ns)
            if self.epoch != epoch:
                return
        body = encode_response(op.op, value) if status == RESP_OK else b""
        payload = frame_response(self._framing, window_slot, req_epoch, status, body)
        yield from self._respond(client, payload, epoch)
        if self.epoch != epoch:
            return
        self._release(client, window_slot)
        self.responses += 1
        role = self.ha_role
        if role is not None and status == RESP_OK:
            role.group.record_ack(
                role.epoch if ack_epoch is None else ack_epoch, role.replica_id
            )
        if self.completion_hook is not None:
            self.completion_hook(client, op, sim.now)

    def ha_serve_deferred_get(
        self, client: int, window_slot: int, req_epoch: int, op: Operation, epoch: int
    ) -> Generator[Event, None, None]:
        """Answer a GET that waited for a PUT on its key to commit."""
        if self.epoch == epoch and self.alive:
            yield from self._execute(client, window_slot, op, req_epoch, epoch)

    def _respond(
        self, client: int, payload: bytes, epoch: Optional[int] = None
    ) -> Generator[Event, None, None]:
        """SEND the response over UD, inlined below the cutoff.

        With ``epoch`` given, the send is fenced: a process that
        crashed mid-respond stops before anything reaches the NIC.
        """
        p = self.profile
        ah = self.client_ahs[client]
        inline = len(payload) <= p.herd_inline_cutoff
        if not inline:
            # Large values go out un-inlined: DMA beats PIO for large
            # payloads (Figure 4b), so HERD switches at 144 B on Apt.
            yield self.sim.timeout(len(payload) / p.memcpy_bytes_per_ns)
            if epoch is not None and self.epoch != epoch:
                return
        yield self.sim.timeout(p.post_send_ns)
        if epoch is not None and self.epoch != epoch:
            return
        if inline:
            wr = WorkRequest.send(payload=payload, inline=True, signaled=False, ah=ah)
        else:
            # Staged after the last fence, so a fenced return never
            # strands an extent the NIC will not fetch.
            staging = self._staging
            wr = staging.send(payload, ah)
            while wr is None:
                yield staging.wait()
                if epoch is not None and self.epoch != epoch:
                    return
                wr = staging.send(payload, ah)
        yield self.device.post_send(self.ud_qp, wr)
