"""Wire packets exchanged between RNICs.

Packets carry real payload bytes plus the addressing metadata a BTH /
RETH would.  Requester-side bookkeeping state (the originating work
request) rides along as a Python reference — it never influences the
responder, which acts only on the wire fields.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.verbs.types import Transport, WorkRequest


class PacketKind(enum.Enum):
    WRITE = "WRITE"              # RDMA WRITE data
    SEND = "SEND"                # SEND message data
    READ_REQ = "READ_REQ"        # RDMA READ request
    READ_RESP = "READ_RESP"      # RDMA READ response data
    ACK = "ACK"                  # RC acknowledgement
    ATOMIC_REQ = "ATOMIC_REQ"    # CmpSwap / FetchAdd request (operands)
    ATOMIC_RESP = "ATOMIC_RESP"  # atomic response (original value)

    def __init__(self, label: str) -> None:
        # Per-member attributes, as on Transport/Opcode: the ingress path
        # asks once per packet and Enum members hash at Python level.
        #: position in definition order: the key of tuple-indexed tables
        self.index: int = len(self.__class__.__members__)
        #: responses and ACKs return to the original requester, whose
        #: NIC processes them with the *requester* QP-context role
        self.to_requester: bool = label in ("READ_RESP", "ACK", "ATOMIC_RESP")


class Packet:
    """One message on the fabric (segmentation is priced, not split)."""

    __slots__ = (
        "kind",
        "transport",
        "src_machine",
        "src_qpn",
        "dst_machine",
        "dst_qpn",
        "payload",
        "raddr",
        "rkey",
        "length",
        "psn",
        "wr",
        "wire_bytes",
        "corrupt",
    )

    def __init__(
        self,
        kind: PacketKind,
        transport: Transport,
        src_machine: str,
        src_qpn: int,
        dst_machine: str,
        dst_qpn: int,
        payload: Optional[bytes] = None,
        raddr: int = 0,
        rkey: int = 0,
        length: int = 0,
        psn: int = 0,
        wr: Optional[WorkRequest] = None,
        wire_bytes: int = 0,
    ) -> None:
        self.kind = kind
        self.transport = transport
        self.src_machine = src_machine
        self.src_qpn = src_qpn
        self.dst_machine = dst_machine
        self.dst_qpn = dst_qpn
        self.payload = payload
        self.raddr = raddr
        self.rkey = rkey
        self.length = length
        self.psn = psn
        self.wr = wr
        #: what the message occupies on the wire, headers of every MTU
        #: segment included; priced by the sender when it builds the packet
        self.wire_bytes = wire_bytes
        #: set by the fabric's fault layer: the payload was damaged on
        #: the wire, so the receiving NIC's ICRC check will discard it
        self.corrupt = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Packet %s %s %s:%d -> %s:%d len=%d>" % (
            self.kind.value,
            self.transport.value,
            self.src_machine,
            self.src_qpn,
            self.dst_machine,
            self.dst_qpn,
            self.length,
        )
