"""The RDMA device: the timed verbs datapath over one machine's RNIC.

Egress (posting a verb, Section 2.2.2 and Figure 1):

1. the CPU prepares the WQE (caller charges ``post_send_ns``) and rings
   the doorbell — for ConnectX-3 the doorbell carries the whole WQE, so
   the PIO cost is per write-combining cacheline of the WQE;
2. the NIC's egress engine processes the WQE (touching the QP context
   cache as the *requester*);
3. a non-inlined payload is fetched over PCIe with non-posted DMA reads
   (the bytes are snapshotted at fetch time — true zero-copy semantics);
4. the packet is serialised onto the port and crosses the fabric.

Ingress mirrors it: the engine processes the packet (touching the QP
context as the *responder*), data lands in registered memory via posted
DMA writes, completions are DMA-written to CQs, and RC generates ACKs.

Unsignaled verbs skip the completion DMA entirely — that is the
"selective signaling" optimisation the paper leans on.

What a work request costs depends only on its *shape* — transport,
opcode, inline or not, payload length — and the device's frozen
hardware profile, so it is worked out once per shape
(:class:`~repro.verbs.plan.SendPlan`, from
:func:`~repro.verbs.plan.plan_for` on the first post) and the
per-packet path reads it.  Every stage is a ``serve`` that books the
next stage — a bound method — with what it needs as the value
(``then=``): no closure and no event per packet.  Only the PIO write is
an event, because the poster awaits it.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Generator, Optional, Tuple

from repro.hw.machine import Machine
from repro.sim import Event
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegion, MrTable
from repro.verbs.packets import Packet, PacketKind
from repro.verbs.plan import CQE_BYTES, SendPlan, packet_wire_bytes, plan_for
from repro.verbs.qp import QueuePair
from repro.verbs.types import (
    ATOMIC_BYTES,
    Cqe,
    CqeStatus,
    Opcode,
    QpState,
    RecvRequest,
    Transport,
    VerbError,
    WorkRequest,
    _validate_atomic_args,
)

#: Optional observers the benchmarks attach: fn(packet) after the data
#: has landed in host memory.
Hook = Callable[[Packet], None]

#: Retransmission timeout used only when the fabric injects faults.
RC_RTO_NS = 100_000.0


def _by_index(members, table: dict) -> tuple:
    """``table`` as a tuple indexed by ``member.index``.

    The per-packet lookups use these instead of enum-keyed dicts:
    hashing an Enum member is a Python-level call.
    """
    return tuple(table.get(member) for member in members)


#: atomic request wire operands: op tag, compare/add, swap
_ATOMIC_WIRE = struct.Struct("<BQQ")
_ATOMIC_CS_TAG = 0
_ATOMIC_FA_TAG = 1
_U64_MASK = (1 << 64) - 1

#: per-source-QP replay entries the responder retains (real NICs size
#: this as "responder resources"; 2x the requester's credit limit)
_ATOMIC_REPLAY_DEPTH = 32


class RdmaDevice:
    """Verbs endpoint for one machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.profile = machine.profile
        self.mr_table = MrTable()
        self.qps: Dict[int, QueuePair] = {}
        self._next_qpn = 1
        #: send plans by shape — (transport.index, opcode.index, inline,
        #: length) — filled by the first post of each shape
        self._plans: Dict[Tuple[int, int, bool, int], SendPlan] = {}
        machine.attach_packet_handler(self._on_packet)
        # Observers (benchmarks): called when inbound data lands.
        self.write_done_hook: Optional[Hook] = None
        self.send_done_hook: Optional[Hook] = None
        self.read_served_hook: Optional[Hook] = None
        # Fault injection (repro.faults): when set, an inbound SEND for
        # which this returns True is discarded as if no RECV were
        # posted (an RNR condition at the receiver).
        self.rnr_hook: Optional[Callable[[Packet], bool]] = None
        # Counters
        self.writes_received = 0
        self.sends_received = 0
        self.reads_served = 0
        self.acks_received = 0
        self.duplicate_acks = 0
        self.retransmits = 0
        self.icrc_drops = 0      # corrupted packets discarded at ingress
        self.qp_error_drops = 0  # packets addressed to an ERROR-state QP
        self.atomics_served = 0  # remote read-modify-writes executed here
        self.atomic_replays = 0  # duplicate atomic requests answered from cache
        self.psn_gap_drops = 0   # out-of-order reliable packets discarded
        self.psn_duplicate_drops = 0  # already-delivered packets re-acked
        #: Model the RC transport's in-order exactly-once contract on
        #: WRITE/SEND flows: sequential PSNs on request packets,
        #: responder-side expected-PSN tracking (duplicates re-acked
        #: and discarded, gaps discarded until the retransmit arrives),
        #: and cumulative PSN-matched ACKs at the requester.  Off by
        #: default: the legacy FIFO ACK matching is kept for every
        #: existing harness (their fingerprints are pinned); the
        #: nemesis turns this on for dataplanes whose correctness
        #: *relies* on RC ordering (one-sided commits bypass the CPU,
        #: so no application-level sequencing can paper over the
        #: fabric's reordering the way the HA mesh protocol does).
        self.enforce_rc_ordering = False
        #: responder expected-PSN table: (src machine, src qpn,
        #: dst qpn) -> next PSN to deliver (only consulted when
        #: enforce_rc_ordering is set)
        self._expected_psn: Dict[Tuple[str, int, int], int] = {}
        #: responder replay cache: (src machine, src qpn) -> {psn:
        #: original value}; a retransmitted atomic whose response was
        #: lost is answered from here instead of re-executing the RMW
        #: (exactly-once side effects over a lossy fabric).  An entry of
        #: None marks a request still in the locked-execution window.
        self._atomic_replay: Dict[Tuple[str, int], Dict[int, Optional[int]]] = {}
        # Observability (repro.obs): semantic verbs counters, None when
        # the simulator carries no metrics registry.  Both are cached
        # for the reason FifoServer gives: they attach in
        # Simulator.__init__, before any device exists.
        self.metrics = getattr(self.sim, "metrics", None)
        self.tracer = getattr(self.sim, "tracer", None)
        # Ingress dispatch tables by PacketKind.index, built once per
        # device: the profile's per-kind service times and the bound
        # handler methods (each takes the packet the NIC engine finished).
        p = self.profile
        self._ingress_service = _by_index(
            PacketKind,
            {
                PacketKind.WRITE: p.nic_ingress_write_ns,
                PacketKind.SEND: p.nic_ingress_send_ns,
                PacketKind.READ_REQ: p.nic_ingress_read_ns,
                PacketKind.READ_RESP: p.nic_ingress_resp_ns,
                PacketKind.ACK: p.nic_ingress_ack_ns,
                PacketKind.ATOMIC_REQ: p.nic_ingress_atomic_ns,
                PacketKind.ATOMIC_RESP: p.nic_ingress_resp_ns,
            },
        )
        self._ingress_handler = _by_index(
            PacketKind,
            {
                PacketKind.WRITE: self._handle_write,
                PacketKind.SEND: self._handle_send,
                PacketKind.READ_REQ: self._handle_read_req,
                PacketKind.READ_RESP: self._handle_read_resp,
                PacketKind.ACK: self._handle_ack,
                PacketKind.ATOMIC_REQ: self._handle_atomic_req,
                PacketKind.ATOMIC_RESP: self._handle_atomic_resp,
            },
        )
        # The two fixed-size responder packets, priced once.
        self._ack_wire_bytes = packet_wire_bytes(p, PacketKind.ACK, 0)
        self._atomic_resp_wire_bytes = packet_wire_bytes(
            p, PacketKind.ATOMIC_RESP, ATOMIC_BYTES
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def register_memory(self, length: int) -> MemoryRegion:
        """Register (pin + map) a buffer of ``length`` bytes."""
        return self.mr_table.register(length)

    def create_qp(
        self,
        transport: Transport,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
    ) -> QueuePair:
        """Create a queue pair (fresh CQs by default)."""
        qpn = self._next_qpn
        self._next_qpn += 1
        if send_cq is None:  # explicit: an empty CQ is falsy (len == 0)
            send_cq = CompletionQueue(self.sim, "%s.qp%d.scq" % (self.machine.name, qpn))
        if recv_cq is None:
            recv_cq = CompletionQueue(self.sim, "%s.qp%d.rcq" % (self.machine.name, qpn))
        qp = QueuePair(
            self,
            qpn,
            transport,
            send_cq,
            recv_cq,
            self.profile.max_outstanding_reads,
        )
        self.qps[qpn] = qp
        return qp

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------

    def post_send(self, qp: QueuePair, wr: WorkRequest) -> Event:
        """Post a work request to the send queue.

        The returned event fires when the WQE has been handed to the
        NIC, i.e. when the CPU's PIO write of the WQE completes — the
        poster stalls for this (it is the poster's store instructions),
        so callers inside a simulated core should ``yield`` it.  The
        rest of the datapath proceeds asynchronously.
        """
        opcode = wr.opcode
        plan = self._plans.get(
            (qp.transport.index, opcode.index, wr.inline, wr.length)
        )
        if plan is None:
            plan = self._build_plan(qp, wr)
        # What depends on this WR or this QP, not on the shape, is
        # checked on every post.
        if opcode.fetchless:
            if opcode.atomic:
                # re-check here so hand-built WorkRequests are caught too
                _validate_atomic_args(wr.raddr, wr.local)
            elif wr.local is None:
                raise VerbError("READ requires a local sink buffer")
        if qp.peer is None and qp.transport.connected:
            raise VerbError("queue pair is not connected")
        if qp.state is QpState.ERROR:
            # The QP was transitioned to the error state (fault
            # injection): the WR is flushed, never reaching the wire.
            qp.flushed_wrs += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "verbs.%s.flushed_wrs" % self.machine.name
                ).inc()
            if wr.signaled:
                self._push_cqe(
                    qp.send_cq,
                    Cqe(wr.wr_id, opcode, status=CqeStatus.FLUSH_ERROR),
                )
            if wr.on_fetched is not None:
                # nothing will fetch a flushed WR: its buffer is free now
                wr.on_fetched(wr)
            return self.sim.timeout(0.0)
        tracer = self.tracer
        if tracer is not None:
            tracer.mark(
                "%s.cpu" % self.machine.name,
                "post_send %s%s (%d B, %s, %s)"
                % (
                    opcode.value,
                    " inlined" if wr.inline else "",
                    plan.length,
                    qp.transport.value,
                    "signaled" if wr.signaled else "unsignaled",
                ),
            )
        if opcode.fetchless and not qp.take_read_credit():
            # ConnectX-3 services at most 16 outstanding READs per QP
            # (atomics share the same non-posted slots); excess
            # requests wait in the driver.
            qp.pending_reads.append(wr)
            return self.sim.timeout(0.0)
        qp.sends_posted += 1
        if self.metrics is not None:
            prefix = "verbs.%s." % self.machine.name
            self.metrics.counter(
                prefix + "wqe.%s.%s" % (opcode.value, qp.transport.value)
            ).inc()
            if not opcode.fetchless:
                self.metrics.counter(
                    prefix + ("payload.inline" if wr.inline else "payload.dma")
                ).inc()
        # The WQE rides its egress stages as [qp, wr, plan, ready?].
        pio_done = self.machine.pcie.pio_write(
            plan.wqe_bytes, [qp, wr, plan, False]
        )
        pio_done.callbacks.append(self._egress)
        return pio_done

    def post_send_timed(
        self, qp: QueuePair, wr: WorkRequest
    ) -> Generator[Event, None, None]:
        """``post_send`` plus the 150 ns driver cost, for app loops.

        Use as ``yield from device.post_send_timed(qp, wr)`` inside a
        simulator process.
        """
        yield self.sim.timeout(self.profile.post_send_ns)
        yield self.post_send(qp, wr)

    def post_recv(self, qp: QueuePair, rr: RecvRequest) -> None:
        """Pre-post a receive buffer (bookkeeping only).

        The CPU cost (``post_recv_ns``) and the doorbell are charged by
        :meth:`post_recv_timed`; benchmarks that batch RECV postings
        charge them explicitly.
        """
        qp.recvs_posted += 1
        qp.recv_queue.append(rr)

    def post_recv_timed(
        self, qp: QueuePair, rr: RecvRequest
    ) -> Generator[Event, None, None]:
        """``post_recv`` plus CPU cost and doorbell."""
        self.post_recv(qp, rr)
        yield self.sim.timeout(self.profile.post_recv_ns)
        yield self.machine.pcie.doorbell()

    # ------------------------------------------------------------------
    # Egress datapath
    # ------------------------------------------------------------------

    def _build_plan(self, qp: QueuePair, wr: WorkRequest) -> SendPlan:
        """First post of a shape: derive its plan and keep it.

        A shape the hardware rejects raises here, before anything is
        kept, so it raises again on every later post.
        """
        transport, opcode = qp.transport, wr.opcode
        plan = plan_for(self.profile, transport, opcode, wr.inline, wr.length)
        self._plans[(transport.index, opcode.index, wr.inline, wr.length)] = plan
        return plan

    def _egress(self, pio_done: Event) -> None:
        wqe = pio_done._value
        qp, _wr, plan, _ready = wqe
        machine = self.machine
        service = plan.egress_ns + machine.qp_cache.access_ns(qp.requester_key, True)
        # A QP's WQEs reach the wire in post order: even though a DMA
        # fetch delays this WQE, later (e.g. inlined) WQEs must not
        # overtake it.  Each WQE queues here and is released by
        # _wqe_ready, in the callback that makes it and all of its
        # predecessors ready.
        qp.egress_queue.append(wqe)
        machine.nic_egress.serve(
            service,
            wqe,
            0.0,
            self._wqe_ready if plan.fetch_transactions is None else self._fetch,
        )

    def _fetch(self, wqe: list) -> None:
        """Fetch the payload from host memory with non-posted DMA."""
        plan = wqe[2]
        self.machine.pcie.dma_read(
            plan.length, plan.fetch_transactions, wqe, self._wqe_ready
        )

    def _wqe_ready(self, wqe: list) -> None:
        """A WQE finished its last egress stage: release what is in order."""
        wqe[3] = True
        queue = wqe[0].egress_queue
        while queue and queue[0][3]:
            qp, wr, plan, _ready = queue.popleft()
            self._transmit_wr(qp, wr, plan)

    def _transmit_wr(self, qp: QueuePair, wr: WorkRequest, plan: SendPlan) -> None:
        dst = qp.peer
        if dst is None or wr.ah is not None:
            # an address handle (UD, DC) — or a WR that misuses one
            dst = qp.destination_for(wr)
        opcode = wr.opcode
        psn = 0
        if wr.inline or opcode is Opcode.READ:
            payload = wr.payload
        elif opcode.atomic:
            # The request packet carries the operands (the AtomicETH);
            # the PSN identifies it in the responder's replay cache.
            tag = _ATOMIC_CS_TAG if opcode is Opcode.ATOMIC_CS else _ATOMIC_FA_TAG
            payload = _ATOMIC_WIRE.pack(
                tag, wr.compare_add & _U64_MASK, wr.swap & _U64_MASK
            )
            qp.atomic_psn += 1
            psn = qp.atomic_psn
        else:
            # Zero-copy: the bytes leave host memory at DMA-fetch time.
            mr, offset, length = wr.local
            payload = mr.read(offset, length)
            if wr.on_fetched is not None:
                wr.on_fetched(wr)
        if self.enforce_rc_ordering and plan.acked:
            # Sequential PSNs let the responder deliver in post order
            # and the requester match ACKs cumulatively (go-back-N).
            qp.send_psn += 1
            psn = qp.send_psn
            wr._psn = psn
        machine = self.machine
        packet = Packet(
            plan.kind,
            qp.transport,
            machine.name,
            qp.qpn,
            dst[0],
            dst[1],
            payload,
            wr.raddr,
            wr.rkey,
            plan.length,
            psn,
            wr,
            plan.wire_bytes,
        )
        if plan.acked:
            qp.unacked.append(wr)
        machine.fabric.transmit(machine.name, dst[0], packet, plan.wire_bytes)
        if plan.local_completion:
            # UC/UD: local completion once the NIC has taken the message.
            if wr.signaled:
                self._push_cqe(qp.send_cq, Cqe(wr.wr_id, opcode, byte_len=plan.length))
        elif machine.fabric.lossy:
            self._arm_retransmit(qp, packet)

    def _egress_response(self, packet: Packet, service: float) -> None:
        """Responder-generated packets (responses, ACKs): engine, then wire."""
        self.machine.nic_egress.serve(service, packet, 0.0, self._transmit)

    def _transmit(self, packet: Packet) -> None:
        """Put an already priced packet on the wire (again, on a retransmit)."""
        machine = self.machine
        machine.fabric.transmit(
            machine.name, packet.dst_machine, packet, packet.wire_bytes
        )

    # ------------------------------------------------------------------
    # RC retransmission (only armed under fault injection)
    # ------------------------------------------------------------------

    def _arm_retransmit(self, qp: QueuePair, packet: Packet) -> None:
        wr = packet.wr
        if wr is None:
            return
        # Mark the WR as outstanding; the ACK / READ_RESP clears it.
        wr._acked = False

        def check() -> None:
            if not getattr(wr, "_acked", True):
                self.retransmits += 1
                self._transmit(packet)
                self.sim.call_in(RC_RTO_NS, check)

        self.sim.call_in(RC_RTO_NS, check)

    # ------------------------------------------------------------------
    # Ingress datapath
    # ------------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        machine = self.machine
        if packet.corrupt:
            # The ICRC check fails on arrival: the NIC silently discards
            # the frame before touching any QP context.  The wire
            # bandwidth is already gone; charge only a header-sized
            # ingress inspection.
            machine.nic_ingress.serve(
                self.profile.nic_ingress_ack_ns, packet, 0.0, self._icrc_discarded
            )
            return
        kind = packet.kind
        requester = kind.to_requester
        dst_qp = self.qps.get(packet.dst_qpn)
        if dst_qp is None:
            role_key = ("s" if requester else "r", packet.dst_qpn)
        elif dst_qp.state is QpState.ERROR:
            # Packets addressed to an error-state QP are dropped by the
            # NIC (real hardware NAKs or silently discards, depending on
            # transport; neither delivers to memory).
            self.qp_error_drops += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "verbs.%s.qp_error_drops" % machine.name
                ).inc()
            return
        else:
            role_key = dst_qp.requester_key if requester else dst_qp.responder_key
        index = kind.index
        service = self._ingress_service[index] + machine.qp_cache.access_ns(
            role_key, requester
        )
        machine.nic_ingress.serve(service, packet, 0.0, self._ingress_handler[index])

    def _icrc_discarded(self, _packet: Packet) -> None:
        self.icrc_drops += 1
        if self.metrics is not None:
            self.metrics.counter("verbs.%s.icrc_drops" % self.machine.name).inc()

    # -- RC ordering enforcement (enforce_rc_ordering only) ------------

    def _rc_ordered(self, packet: Packet) -> bool:
        """Whether this packet participates in the enforced PSN stream.

        ``psn > 0`` excludes packets from senders that do not stamp
        sequential PSNs (the flag is per device, and PSN 0 is the
        unstamped default), so mixed clusters degrade to legacy
        delivery instead of discarding everything as duplicates.
        """
        return (
            self.enforce_rc_ordering
            and packet.transport.reliable
            and packet.psn > 0
        )

    def _psn_key(self, packet: Packet) -> Tuple[str, int, int]:
        return (packet.src_machine, packet.src_qpn, packet.dst_qpn)

    def _psn_check(self, packet: Packet) -> int:
        """-1 = already delivered, 0 = in order, +1 = gap ahead."""
        expected = self._expected_psn.get(self._psn_key(packet), 1)
        if packet.psn == expected:
            return 0
        return -1 if packet.psn < expected else 1

    def _psn_discard(self, packet: Packet, verdict: int) -> None:
        if verdict < 0:
            # Duplicate (our ACK was lost, or the fabric cloned the
            # packet): discard the side effect, re-ack our cumulative
            # progress so the requester's retransmit timer stands down.
            self.psn_duplicate_drops += 1
            self._send_ack(
                packet, psn=self._expected_psn.get(self._psn_key(packet), 1) - 1
            )
        else:
            # Gap: an earlier packet is still missing.  Real RC NAKs
            # and the requester goes back; here the per-packet
            # retransmit timers re-send everything unacked in post
            # order, so silently discarding converges the same way.
            self.psn_gap_drops += 1

    def _psn_advance(self, packet: Packet) -> None:
        self._expected_psn[self._psn_key(packet)] = packet.psn + 1

    def _handle_write(self, packet: Packet) -> None:
        if self.enforce_rc_ordering and self._rc_ordered(packet):
            verdict = self._psn_check(packet)
            if verdict != 0:
                self._psn_discard(packet, verdict)
                return
            self._psn_advance(packet)
        mr = self.mr_table.resolve(packet.raddr, packet.rkey, packet.length)
        offset = packet.raddr - mr.addr  # inside the region: resolve checked
        mr.write(offset, packet.payload)
        self.machine.pcie.dma_write(
            packet.length, (packet, mr, offset), self._write_landed
        )
        if packet.transport.reliable:
            self._send_ack(packet)

    def _write_landed(self, landed: tuple) -> None:
        packet, mr, offset = landed
        self.writes_received += 1
        if mr.on_write is not None:
            mr.on_write(offset, packet.length)
        if self.write_done_hook is not None:
            self.write_done_hook(packet)

    def _handle_send(self, packet: Packet) -> None:
        qp = self.qps.get(packet.dst_qpn)
        if qp is None:
            raise VerbError("SEND to unknown QP %d" % packet.dst_qpn)
        ordered = self.enforce_rc_ordering and self._rc_ordered(packet)
        if ordered:
            # Duplicates must be rejected *before* they consume a RECV.
            verdict = self._psn_check(packet)
            if verdict != 0:
                self._psn_discard(packet, verdict)
                return
        if self.rnr_hook is not None and self.rnr_hook(packet):
            # Injected RECV-queue exhaustion: the message is discarded
            # exactly as if the application had fallen behind on
            # replenishing RECVs (an RNR drop on these transports).
            # Under enforced ordering the PSN does not advance and no
            # ACK is sent, so the requester retries — RNR semantics.
            qp.rnr_drops += 1
            return
        if not qp.recv_queue:
            # No pre-posted RECV: the message is dropped (we forgo RNR
            # retries, as the paper's designs never let this happen).
            qp.rnr_drops += 1
            return
        if ordered:
            self._psn_advance(packet)
        rr = qp.recv_queue.popleft()
        mr, offset, capacity = rr.local
        grh = self.profile.grh_bytes if qp.transport is Transport.UD else 0
        if packet.length + grh > capacity:
            raise VerbError(
                "RECV buffer of %d bytes cannot hold %d-byte SEND"
                % (capacity, packet.length + grh)
            )
        # UD receive buffers start with a 40-byte GRH.
        mr.write(offset + grh, packet.payload)
        self.machine.pcie.dma_write(
            packet.length + grh, (packet, qp, rr), self._send_landed
        )
        if packet.transport.reliable:
            self._send_ack(packet)

    def _send_landed(self, landed: tuple) -> None:
        packet, qp, rr = landed
        self.sends_received += 1
        self._push_cqe(
            qp.recv_cq,
            Cqe(
                rr.wr_id,
                Opcode.RECV,
                byte_len=packet.length,
                src=(packet.src_machine, packet.src_qpn),
                qpn=qp.qpn,
            ),
        )
        if self.send_done_hook is not None:
            self.send_done_hook(packet)

    def _handle_read_req(self, packet: Packet) -> None:
        mr = self.mr_table.resolve(packet.raddr, packet.rkey, packet.length)
        offset = packet.raddr - mr.addr  # inside the region: resolve checked
        self.machine.pcie.dma_read(
            packet.length, 1, (packet, mr, offset), self._read_fetched
        )

    def _read_fetched(self, fetched: tuple) -> None:
        packet, mr, offset = fetched
        self.reads_served += 1
        if self.read_served_hook is not None:
            self.read_served_hook(packet)
        length = packet.length
        response = Packet(
            PacketKind.READ_RESP,
            packet.transport,
            self.machine.name,
            packet.dst_qpn,
            packet.src_machine,
            packet.src_qpn,
            payload=mr.read(offset, length),
            length=length,
            wr=packet.wr,
            wire_bytes=packet_wire_bytes(self.profile, PacketKind.READ_RESP, length),
        )
        self._egress_response(response, self.profile.nic_egress_ns)

    def _handle_read_resp(self, packet: Packet) -> None:
        qp = self.qps.get(packet.dst_qpn)
        wr = packet.wr
        if qp is None or wr is None:
            raise VerbError("READ response for unknown QP/WR")
        if self.enforce_rc_ordering and getattr(wr, "_acked", False):
            # A cloned/replayed response after the original: without
            # this guard it would overwrite the landing buffer with
            # stale bytes and push a second CQE for the same WR
            # (mirrors the _handle_atomic_resp guard; gated so legacy
            # harnesses keep their pinned fingerprints).
            self.duplicate_acks += 1
            return
        wr._acked = True
        mr, offset, _length = wr.local
        mr.write(offset, packet.payload)
        self.machine.pcie.dma_write(
            packet.length, (qp, wr, packet.length), self._response_landed
        )

    def _response_landed(self, landed: tuple) -> None:
        """A READ's data or an atomic's original value is in the WR's sink."""
        qp, wr, byte_len = landed
        if wr.signaled:
            self._push_cqe(qp.send_cq, Cqe(wr.wr_id, wr.opcode, byte_len=byte_len))
        queued = qp.return_read_credit()
        if queued is not None:
            self.post_send(qp, queued)

    def _handle_atomic_req(self, packet: Packet) -> None:
        """Execute a remote read-modify-write as the responder.

        The mutation happens inside the PCIe bus's locked occupancy
        window (:meth:`~repro.hw.pcie.PcieBus.dma_atomic`): the shared
        ``dma`` FifoServer never overlaps two services, so every atomic
        targeting this host is serialised regardless of which QP or
        requester issued it — the per-device atomicity guarantee.
        """
        mr = self.mr_table.resolve(packet.raddr, packet.rkey, ATOMIC_BYTES)
        offset = mr.offset_of(packet.raddr)
        tag, compare_add, swap = _ATOMIC_WIRE.unpack(packet.payload)
        cache = self._atomic_replay.setdefault(
            (packet.src_machine, packet.src_qpn), {}
        )
        if packet.psn in cache:
            original = cache[packet.psn]
            if original is None:
                # The first copy is still inside its locked window; the
                # duplicate is dropped (the requester keeps its RTO).
                return
            # Replay: the response was lost.  Answer from the cache —
            # the RMW must not execute twice.
            self.atomic_replays += 1
            self._respond_atomic(packet, original)
            return
        cache[packet.psn] = None
        if len(cache) > _ATOMIC_REPLAY_DEPTH:
            for stale in sorted(cache)[: len(cache) - _ATOMIC_REPLAY_DEPTH]:
                if cache[stale] is not None:
                    del cache[stale]

        def locked() -> None:
            original = int.from_bytes(mr.read(offset, ATOMIC_BYTES), "little")
            if tag == _ATOMIC_CS_TAG:
                if original == compare_add:
                    mr.write(offset, swap.to_bytes(ATOMIC_BYTES, "little"))
            else:
                value = (original + compare_add) & _U64_MASK
                mr.write(offset, value.to_bytes(ATOMIC_BYTES, "little"))
            cache[packet.psn] = original
            self.atomics_served += 1
            if self.metrics is not None:
                self.metrics.counter("verbs.%s.atomics" % self.machine.name).inc()

        done = self.machine.pcie.dma_atomic(on_locked=locked)
        done.add_callback(
            lambda _e: self._respond_atomic(packet, cache[packet.psn])
        )

    def _respond_atomic(self, packet: Packet, original: int) -> None:
        response = Packet(
            PacketKind.ATOMIC_RESP,
            packet.transport,
            self.machine.name,
            packet.dst_qpn,
            packet.src_machine,
            packet.src_qpn,
            payload=original.to_bytes(ATOMIC_BYTES, "little"),
            length=ATOMIC_BYTES,
            psn=packet.psn,
            wr=packet.wr,
            wire_bytes=self._atomic_resp_wire_bytes,
        )
        self._egress_response(response, self.profile.nic_egress_ns)

    def _handle_atomic_resp(self, packet: Packet) -> None:
        qp = self.qps.get(packet.dst_qpn)
        wr = packet.wr
        if qp is None or wr is None:
            raise VerbError("atomic response for unknown QP/WR")
        if getattr(wr, "_acked", False):
            # a replayed response after the original arrived; drop it
            self.duplicate_acks += 1
            return
        wr._acked = True
        mr, offset, _length = wr.local
        mr.write(offset, packet.payload)
        self.machine.pcie.dma_write(
            packet.length, (qp, wr, packet.length), self._response_landed
        )

    def _send_ack(self, packet: Packet, psn: Optional[int] = None) -> None:
        ack = Packet(
            PacketKind.ACK,
            packet.transport,
            self.machine.name,
            packet.dst_qpn,
            packet.src_machine,
            packet.src_qpn,
            psn=packet.psn if psn is None else psn,
            wr=packet.wr,
            wire_bytes=self._ack_wire_bytes,
        )
        self._egress_response(ack, self.profile.nic_ingress_ack_ns)

    def _handle_ack(self, packet: Packet) -> None:
        self.acks_received += 1
        qp = self.qps.get(packet.dst_qpn)
        if qp is None or not qp.unacked:
            self.duplicate_acks += 1
            return  # duplicate ACK after a retransmit; harmless
        if self.enforce_rc_ordering and self._rc_ordered(packet):
            # Cumulative: an ACK for PSN n acknowledges every send up
            # to n, so a lost ACK is repaired by the next one instead
            # of mis-crediting the FIFO head (which would disarm the
            # dropped packet's retransmit timer and lose the write).
            popped = False
            while qp.unacked and getattr(qp.unacked[0], "_psn", 0) <= packet.psn:
                wr = qp.unacked.popleft()
                wr._acked = True
                if wr.signaled:
                    self._push_cqe(
                        qp.send_cq, Cqe(wr.wr_id, wr.opcode, byte_len=wr.length)
                    )
                popped = True
            if not popped:
                self.duplicate_acks += 1
            return
        wr = qp.unacked.popleft()
        wr._acked = True
        if wr.signaled:
            self._push_cqe(qp.send_cq, Cqe(wr.wr_id, wr.opcode, byte_len=wr.length))

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------

    def _push_cqe(self, cq: CompletionQueue, cqe: Cqe) -> None:
        """DMA-write a CQE into host memory, then make it pollable."""
        if self.metrics is not None:
            # CQE DMAs steal PCIe capacity from payload DMA — the cost
            # selective signaling avoids; count them so that shows up.
            self.metrics.counter("verbs.%s.cqe_dma" % self.machine.name).inc()
        self.machine.pcie.dma_write(CQE_BYTES, (cq, cqe), self._cqe_landed)

    def _cqe_landed(self, landed: tuple) -> None:
        cq, cqe = landed
        if self.tracer is not None:
            self.tracer.mark(
                "%s.cpu" % self.machine.name,
                "completion (%s) pollable" % cqe.opcode.value,
            )
        cq.push(cqe)


def connect_pair(
    dev_a: RdmaDevice,
    dev_b: RdmaDevice,
    transport: Transport,
    recv_cq_a: Optional[CompletionQueue] = None,
    recv_cq_b: Optional[CompletionQueue] = None,
) -> Tuple[QueuePair, QueuePair]:
    """Create and bind a connected QP on each device (RC or UC).

    ``dev_a``'s QP is created first — QPNs, and with them the QP-cache
    keys, follow creation order.  ``recv_cq_a``/``recv_cq_b`` share an
    existing receive CQ (a server core polling one CQ for all of its
    clients) instead of a fresh per-QP one.
    """
    if not transport.connected:
        raise VerbError(
            "%s queue pairs are not connected; create them directly" % transport.value
        )
    qp_a = dev_a.create_qp(transport, recv_cq=recv_cq_a)
    qp_b = dev_b.create_qp(transport, recv_cq=recv_cq_b)
    qp_a.connect(dev_b.machine.name, qp_b.qpn)
    qp_b.connect(dev_a.machine.name, qp_a.qpn)
    return qp_a, qp_b
