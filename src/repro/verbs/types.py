"""Verb, transport, and completion types, plus Table 1's capability matrix."""

from __future__ import annotations

import enum
from typing import Optional, Tuple


class Transport(enum.Enum):
    """RDMA transport types (Section 2.2.3).

    DC (Dynamically Connected) is the Connect-IB extension the paper
    points to as the future fix for connection scalability (Section
    5.5): reliable, supports all verbs, yet addresses any remote DC
    target per work request — so a server needs one DC target instead
    of one connected QP per client.
    """

    RC = "RC"  # Reliable Connection: acknowledged, connected
    UC = "UC"  # Unreliable Connection: connected, no ACK/NAK traffic
    UD = "UD"  # Unreliable Datagram: unconnected, one-to-many
    DC = "DC"  # Dynamically Connected: reliable, unconnected (Connect-IB)

    def __init__(self, label: str) -> None:
        # Plain attributes set once per member, not properties or set
        # lookups: the datapath asks these several times per packet, and
        # hashing an Enum member is a Python-level ``__hash__`` call.
        #: position in definition order: the transport part of a
        #: :class:`SendPlan` key
        self.index: int = len(self.__class__.__members__)
        #: bound to exactly one peer QP (RC, UC)
        self.connected: bool = label in ("RC", "UC")
        #: acknowledged and retransmitted (RC, DC)
        self.reliable: bool = label in ("RC", "DC")


class Opcode(enum.Enum):
    """Verb opcodes relevant to this work (Section 2.2.2).

    The two masked atomics are the IB-spec remote read-modify-writes:
    both operate on one 8-byte-aligned quadword and return the
    *original* value to a local sink buffer.  Only the reliable
    transports carry them (the responder must be able to replay a lost
    response without re-executing the side effect).
    """

    SEND = "SEND"
    RECV = "RECV"
    WRITE = "WRITE"
    READ = "READ"
    ATOMIC_CS = "ATOMIC_CMP_AND_SWP"
    ATOMIC_FA = "ATOMIC_FETCH_ADD"

    def __init__(self, label: str) -> None:
        # Per-member attributes for the same reason as Transport's.
        #: position in definition order: the key of tuple-indexed tables
        self.index: int = len(self.__class__.__members__)
        #: the remote read-modify-write verbs
        self.atomic: bool = label.startswith("ATOMIC_")
        #: the two-sided messaging verbs (SEND and RECV)
        self.channel_semantics: bool = label in ("SEND", "RECV")
        #: the one-sided RDMA verbs (READ, WRITE, atomics)
        self.memory_semantics: bool = not self.channel_semantics
        #: requests whose packet carries only addressing/operands — no
        #: payload DMA fetch — and that hold an outstanding-read credit
        #: (the NIC keeps non-posted state for them): READ and atomics
        self.fetchless: bool = label == "READ" or self.atomic


#: atomics always operate on one quadword
ATOMIC_BYTES = 8

#: Table 1: operations supported by each transport type.  UC does not
#: support READs, and UD does not support RDMA at all.  Atomics need a
#: reliable responder, so only RC and DC carry them.  (DC is this
#: library's Connect-IB extension, not part of the paper's Table 1.)
TRANSPORT_CAPABILITIES = {
    Transport.RC: frozenset(
        {
            Opcode.SEND,
            Opcode.RECV,
            Opcode.WRITE,
            Opcode.READ,
            Opcode.ATOMIC_CS,
            Opcode.ATOMIC_FA,
        }
    ),
    Transport.UC: frozenset({Opcode.SEND, Opcode.RECV, Opcode.WRITE}),
    Transport.UD: frozenset({Opcode.SEND, Opcode.RECV}),
    Transport.DC: frozenset(
        {
            Opcode.SEND,
            Opcode.RECV,
            Opcode.WRITE,
            Opcode.READ,
            Opcode.ATOMIC_CS,
            Opcode.ATOMIC_FA,
        }
    ),
}


#: ``Transport.supports``: the member's Table 1 row as a tuple indexed
#: by :attr:`Opcode.index` (what :func:`transport_supports` reads)
for _transport, _opcodes in TRANSPORT_CAPABILITIES.items():
    _transport.supports = tuple(_op in _opcodes for _op in Opcode)


def transport_supports(transport: Transport, opcode: Opcode) -> bool:
    """Whether ``transport`` can carry ``opcode`` (Table 1)."""
    return transport.supports[opcode.index]


class VerbError(Exception):
    """An invalid verb posting (unsupported combination, bad sizes...)."""


class CqeStatus(enum.Enum):
    SUCCESS = "SUCCESS"
    LOCAL_ERROR = "LOCAL_ERROR"
    REMOTE_ACCESS_ERROR = "REMOTE_ACCESS_ERROR"
    #: the WR was flushed because its QP had transitioned to the error
    #: state (IBV_WC_WR_FLUSH_ERR)
    FLUSH_ERROR = "FLUSH_ERROR"


class QpState(enum.Enum):
    """Queue-pair state, reduced to the two states the model needs.

    Real QPs walk RESET -> INIT -> RTR -> RTS; this model creates QPs
    ready to send.  A fault (or ``transition_to_error``) moves the QP
    to ERROR: posted sends are flushed and inbound packets addressed to
    it are discarded until the application re-arms it with
    :meth:`~repro.verbs.qp.QueuePair.recover`.
    """

    RTS = "RTS"
    ERROR = "ERROR"


class Cqe:
    """A completion queue entry.

    A plain ``__slots__`` class (not a dataclass): the verbs datapath
    allocates one per signaled WQE and one per delivered message, and
    the dataclass ``__init__`` indirection showed up in the meta-engine
    profiles (docs/ENGINE.md).
    """

    __slots__ = ("wr_id", "opcode", "status", "byte_len", "src", "qpn", "timestamp")

    def __init__(
        self,
        wr_id: int,
        opcode: Opcode,
        status: CqeStatus = CqeStatus.SUCCESS,
        byte_len: int = 0,
        src: Optional[Tuple[str, int]] = None,
        qpn: int = 0,
        timestamp: float = 0.0,
    ) -> None:
        self.wr_id = wr_id
        self.opcode = opcode
        self.status = status
        self.byte_len = byte_len
        #: for RECV completions: the sender's (machine, qpn) address
        self.src = src
        #: the local QP this completion belongs to (ibv_wc.qp_num) —
        #: needed when several QPs share one CQ
        self.qpn = qpn
        #: simulated time the CQE was pushed to the CQ
        self.timestamp = timestamp

    def __repr__(self) -> str:
        return "Cqe(wr_id=%r, opcode=%r, status=%r, byte_len=%r, qpn=%r)" % (
            self.wr_id,
            self.opcode,
            self.status,
            self.byte_len,
            self.qpn,
        )


class WorkRequest:
    """A send-queue work request (WQE before it reaches the NIC).

    Use the class-method constructors — they keep the combinations that
    make sense on real hardware and reject the rest early.

    A plain ``__slots__`` class for the same reason as :class:`Cqe`;
    ``_acked`` and ``_psn`` are reserved for the device's
    reliable-transport bookkeeping and left unset until first use.
    """

    __slots__ = (
        "opcode",
        "wr_id",
        "payload",
        "local",
        "raddr",
        "rkey",
        "inline",
        "signaled",
        "ah",
        "context",
        "on_fetched",
        "compare_add",
        "swap",
        "_acked",
        "_psn",
    )

    def __init__(
        self,
        opcode: Opcode,
        wr_id: int = 0,
        payload: Optional[bytes] = None,
        local: Optional[Tuple[object, int, int]] = None,
        raddr: int = 0,
        rkey: int = 0,
        inline: bool = False,
        signaled: bool = True,
        ah: Optional[Tuple[str, int]] = None,
        context: object = None,
        on_fetched: Optional[object] = None,
        compare_add: int = 0,
        swap: int = 0,
    ) -> None:
        self.opcode = opcode
        self.wr_id = wr_id
        #: immediate payload bytes (inline) or None
        self.payload = payload
        #: local buffer (mr, offset, length) for non-inline sends / READ sink
        self.local = local
        #: remote address + rkey for RDMA verbs
        self.raddr = raddr
        self.rkey = rkey
        self.inline = inline
        self.signaled = signaled
        #: UD address handle: (machine_name, qpn)
        self.ah = ah
        #: bookkeeping the application may attach (e.g. timestamps)
        self.context = context
        #: called as fn(wr) once the NIC's DMA read has snapshotted a
        #: non-inlined payload out of host memory, or when the WR is
        #: flushed at post on an ERROR-state QP — from then on the local
        #: buffer may be reused (true zero-copy semantics; a
        #: StagingRing frees extents off this)
        self.on_fetched = on_fetched
        #: atomic operands (ibv_wr naming): the compare value for
        #: ATOMIC_CMP_AND_SWP or the addend for ATOMIC_FETCH_ADD ...
        self.compare_add = compare_add
        #: ... and the swap value for ATOMIC_CMP_AND_SWP (unused by FA)
        self.swap = swap

    def __repr__(self) -> str:
        return "WorkRequest(%r, wr_id=%r, inline=%r, signaled=%r)" % (
            self.opcode,
            self.wr_id,
            self.inline,
            self.signaled,
        )

    # -- constructors -----------------------------------------------------

    @classmethod
    def write(
        cls,
        raddr: int,
        rkey: int,
        payload: Optional[bytes] = None,
        local: Optional[Tuple[object, int, int]] = None,
        inline: bool = False,
        signaled: bool = True,
        wr_id: int = 0,
        ah: Optional[Tuple[str, int]] = None,
        context: object = None,
    ) -> "WorkRequest":
        """An RDMA WRITE of ``payload`` (inline) or of ``local`` bytes.

        ``ah`` addresses the remote DC target when the QP is
        Dynamically Connected; connected transports must leave it None.
        """
        if inline and payload is None:
            raise VerbError("inline WRITE requires an immediate payload")
        if payload is None and local is None:
            raise VerbError("WRITE requires payload or local buffer")
        return cls(
            Opcode.WRITE,
            wr_id=wr_id,
            payload=payload,
            local=local,
            raddr=raddr,
            rkey=rkey,
            inline=inline,
            signaled=signaled,
            ah=ah,
            context=context,
        )

    @classmethod
    def read(
        cls,
        raddr: int,
        rkey: int,
        local: Tuple[object, int, int],
        signaled: bool = True,
        wr_id: int = 0,
        context: object = None,
    ) -> "WorkRequest":
        """An RDMA READ of ``local[2]`` bytes from the remote address."""
        return cls(
            Opcode.READ,
            wr_id=wr_id,
            local=local,
            raddr=raddr,
            rkey=rkey,
            signaled=signaled,
            context=context,
        )

    @classmethod
    def send(
        cls,
        payload: Optional[bytes] = None,
        local: Optional[Tuple[object, int, int]] = None,
        inline: bool = False,
        signaled: bool = True,
        ah: Optional[Tuple[str, int]] = None,
        wr_id: int = 0,
        context: object = None,
    ) -> "WorkRequest":
        """A SEND message (requires a pre-posted RECV at the responder)."""
        if inline and payload is None:
            raise VerbError("inline SEND requires an immediate payload")
        if payload is None and local is None:
            raise VerbError("SEND requires payload or local buffer")
        return cls(
            Opcode.SEND,
            wr_id=wr_id,
            payload=payload,
            local=local,
            inline=inline,
            signaled=signaled,
            ah=ah,
            context=context,
        )

    @classmethod
    def cmp_swap(
        cls,
        raddr: int,
        rkey: int,
        compare: int,
        swap: int,
        local: Tuple[object, int, int],
        signaled: bool = True,
        wr_id: int = 0,
        ah: Optional[Tuple[str, int]] = None,
        context: object = None,
    ) -> "WorkRequest":
        """An ATOMIC_CMP_AND_SWP of the quadword at ``raddr``.

        If the remote quadword equals ``compare`` it is replaced with
        ``swap``; either way the *original* value is returned into the
        8-byte ``local`` sink buffer.
        """
        _validate_atomic_args(raddr, local)
        return cls(
            Opcode.ATOMIC_CS,
            wr_id=wr_id,
            local=local,
            raddr=raddr,
            rkey=rkey,
            signaled=signaled,
            ah=ah,
            context=context,
            compare_add=compare,
            swap=swap,
        )

    @classmethod
    def fetch_add(
        cls,
        raddr: int,
        rkey: int,
        add: int,
        local: Tuple[object, int, int],
        signaled: bool = True,
        wr_id: int = 0,
        ah: Optional[Tuple[str, int]] = None,
        context: object = None,
    ) -> "WorkRequest":
        """An ATOMIC_FETCH_ADD of ``add`` to the quadword at ``raddr``.

        The addition wraps at 2**64; the original value is returned
        into the 8-byte ``local`` sink buffer.
        """
        _validate_atomic_args(raddr, local)
        return cls(
            Opcode.ATOMIC_FA,
            wr_id=wr_id,
            local=local,
            raddr=raddr,
            rkey=rkey,
            signaled=signaled,
            ah=ah,
            context=context,
            compare_add=add,
        )

    @property
    def length(self) -> int:
        """Payload length in bytes."""
        if self.payload is not None:
            return len(self.payload)
        if self.local is not None:
            return self.local[2]
        return 0


def _validate_atomic_args(raddr: int, local: Optional[Tuple[object, int, int]]) -> None:
    """Shared operand checks for the atomic constructors (IB spec)."""
    if local is None:
        raise VerbError("atomics require a local sink for the original value")
    if local[2] != ATOMIC_BYTES:
        raise VerbError(
            "atomic sink must be exactly %d bytes; got %d" % (ATOMIC_BYTES, local[2])
        )
    if raddr % ATOMIC_BYTES:
        raise VerbError(
            "atomic target address %#x is not %d-byte aligned" % (raddr, ATOMIC_BYTES)
        )


class RecvRequest:
    """A receive-queue work request: where an incoming SEND lands."""

    __slots__ = ("wr_id", "local", "context")

    def __init__(
        self,
        wr_id: int,
        local: Tuple[object, int, int],
        context: object = None,
    ) -> None:
        self.wr_id = wr_id
        #: destination buffer (mr, offset, capacity)
        self.local = local
        self.context = context

    def __repr__(self) -> str:
        return "RecvRequest(wr_id=%r)" % (self.wr_id,)
