"""What one work-request shape costs: the one definition of a verb's price.

:class:`~repro.verbs.device.RdmaDevice` keeps :func:`plan_for`'s plan per
shape, and :class:`~repro.analysis.BottleneckModel` reads the same plans
for its closed-form demands, so the simulator and the model price alike.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.params import HardwareProfile
from repro.verbs.packets import PacketKind
from repro.verbs.types import Opcode, Transport, VerbError, transport_supports

#: bytes the NIC DMA-writes into host memory per completion (CQE)
CQE_BYTES = 32

#: bytes after the headers of the packets whose size does not follow
#: the payload: a READ's RETH, an atomic's AtomicETH (raddr + rkey +
#: two operands), an ACK's nothing
_FIXED_BYTES = {PacketKind.READ_REQ: 16, PacketKind.ATOMIC_REQ: 28, PacketKind.ACK: 0}

#: requester-side opcode -> wire packet kind
_EGRESS_KIND = {
    Opcode.WRITE: PacketKind.WRITE,
    Opcode.SEND: PacketKind.SEND,
    Opcode.READ: PacketKind.READ_REQ,
    Opcode.ATOMIC_CS: PacketKind.ATOMIC_REQ,
    Opcode.ATOMIC_FA: PacketKind.ATOMIC_REQ,
}


class SendPlan:
    """What posting one *shape* of work request costs, worked out once.

    Everything here follows from ``(transport, opcode, inline, length)``
    and a frozen :class:`~repro.hw.params.HardwareProfile` alone.
    Nothing a fault rule, a QP's state or peer, ``enforce_rc_ordering``,
    the tracer or the metrics registry can change may live here — a
    plan is never invalidated.
    """

    __slots__ = (
        "wqe_bytes",
        "egress_ns",
        "fetch_transactions",
        "kind",
        "length",
        "wire_bytes",
        "acked",
        "local_completion",
    )

    def __init__(
        self, wqe_bytes: int, egress_ns: float, fetch_transactions: Optional[int],
        kind: PacketKind, length: int, wire_bytes: int, acked: bool,
        local_completion: bool,
    ) -> None:
        #: WQE size the CPU pushes through write-combining PIO
        self.wqe_bytes = wqe_bytes
        #: egress-engine occupancy before any QP-cache miss penalty
        self.egress_ns = egress_ns
        #: non-posted DMA reads that fetch the payload; None when the
        #: WQE carries it (inline) or there is none (READ, atomics)
        self.fetch_transactions = fetch_transactions
        #: the request packet's kind on the wire
        self.kind = kind
        #: payload bytes (``WorkRequest.length`` of every WR of the shape)
        self.length = length
        #: the request on the wire, one header per MTU segment included
        self.wire_bytes = wire_bytes
        #: joins ``QueuePair.unacked`` until the responder's ACK (a
        #: WRITE or SEND on a reliable transport)
        self.acked = acked
        #: completes locally once the NIC has taken the message (UC, UD)
        self.local_completion = local_completion


def packet_wire_bytes(
    profile: HardwareProfile, kind: PacketKind, length: int, ud: bool = False
) -> int:
    """What a packet of ``kind`` carrying ``length`` bytes occupies on
    the wire, one header per MTU segment included."""
    length = _FIXED_BYTES.get(kind, length)
    segments = max(1, -(-length // profile.mtu))
    return length + segments * profile.wire_bytes(0, ud=ud)


def plan_for(
    profile: HardwareProfile,
    transport: Transport,
    opcode: Opcode,
    inline: bool,
    length: int,
) -> SendPlan:
    """The cost of posting a work request of this shape on ``profile``;
    a :class:`~repro.verbs.types.VerbError` for a shape the hardware
    rejects (Table 1, ``max_inline``, one MTU on UD, inlined atomics)."""
    p = profile
    if opcode is Opcode.RECV:
        raise VerbError("RECV is posted to the receive queue (post_recv)")
    if not transport_supports(transport, opcode):
        raise VerbError(
            "%s does not support %s (Table 1)" % (transport.value, opcode.value)
        )
    if inline and length > p.max_inline:
        raise VerbError(
            "inline payload %d exceeds max_inline %d" % (length, p.max_inline)
        )
    ud = transport is Transport.UD
    if ud and length > p.mtu:
        raise VerbError("UD messages are limited to one MTU")
    if opcode.atomic and inline:
        raise VerbError("atomics cannot be inlined")
    # WQE geometry: what the CPU pushes through write-combining PIO
    wqe_bytes = (
        p.wqe_ctrl_bytes
        + p.wqe_raddr_bytes * opcode.memory_semantics
        + p.wqe_atomic_bytes * opcode.atomic
        + p.wqe_av_bytes * ud
        + (p.wqe_inline_hdr_bytes + length if inline else p.wqe_data_ptr_bytes)
    )
    transactions = None
    if not (opcode.fetchless or inline):
        # Reliable transport retains WQE state for retransmission: one
        # extra non-posted round trip per send on RC (Section 3.2.2's
        # "writes require less state maintenance ... at the PCIe level"
        # argument, applied to RC vs UC).
        transactions = p.non_inline_fetch_transactions + (transport is Transport.RC)
    kind = _EGRESS_KIND[opcode]
    return SendPlan(
        wqe_bytes=wqe_bytes,
        egress_ns=p.nic_egress_read_ns if opcode.fetchless else p.nic_egress_ns,
        fetch_transactions=transactions,
        kind=kind,
        length=length,
        wire_bytes=packet_wire_bytes(p, kind, length, ud),
        # RC/DC track unacknowledged sends; READs and atomics complete
        # via their response instead of an ACK.  (For DC, FIFO matching
        # of ACKs across targets is sound here because the fabric's
        # propagation delay is uniform.)
        acked=transport.reliable and kind in (PacketKind.WRITE, PacketKind.SEND),
        local_completion=not transport.reliable,
    )
