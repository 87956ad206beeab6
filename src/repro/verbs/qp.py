"""Queue pairs.

A queue pair is a send queue + receive queue bound to one transport
type.  Connected transports (RC/UC) talk to exactly one remote QP;
a UD QP addresses a different remote QP per work request via an
address handle.  The datapath that moves a work request through the
hardware lives in :mod:`repro.verbs.device`; this class holds QP state:
the peer binding, pre-posted RECVs, RC's unacknowledged-send FIFO, and
the outstanding-READ credit limit (16 on ConnectX-3, Section 3.2.2).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.verbs.cq import CompletionQueue
from repro.verbs.types import QpState, RecvRequest, Transport, VerbError, WorkRequest


class QueuePair:
    """One side of an RDMA connection (or a UD endpoint)."""

    def __init__(
        self,
        device: "RdmaDevice",  # noqa: F821  (forward ref, avoids import cycle)
        qpn: int,
        transport: Transport,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_outstanding_reads: int,
    ) -> None:
        self.device = device
        self.qpn = qpn
        self.transport = transport
        #: this QP's two entries in the NIC's QP-context cache — as the
        #: requester (its own WQEs; responses and ACKs coming back) and
        #: as the responder (requests arriving)
        self.requester_key = ("s", qpn)
        self.responder_key = ("r", qpn)
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        #: (machine_name, qpn) of the peer, for connected transports
        self.peer: Optional[Tuple[str, int]] = None
        self.recv_queue: Deque[RecvRequest] = deque()
        #: RC: signaled sends awaiting an ACK, in order
        self.unacked: Deque[WorkRequest] = deque()
        #: READ flow control — atomics share these slots: ConnectX
        #: NICs account CmpSwap/FetchAdd against the same
        #: outstanding-RDMA-read limit (both are non-posted requests
        #: the requester must hold state for)
        self.read_credits = max_outstanding_reads
        self.pending_reads: Deque[WorkRequest] = deque()
        #: per-QP packet sequence number stamped on atomic requests;
        #: the responder's replay cache dedups retransmits by it
        self.atomic_psn = 0
        #: per-QP packet sequence number stamped on WRITE/SEND request
        #: packets when the device enforces RC ordering
        #: (:attr:`RdmaDevice.enforce_rc_ordering`); the responder's
        #: expected-PSN check and the requester's cumulative ACKs key
        #: off it
        self.send_psn = 0
        #: in-order release queue: RDMA executes a QP's WQEs in post
        #: order, so a payload DMA fetch must not let later (e.g.
        #: inlined) WQEs overtake this one onto the wire.  The device
        #: queues each WQE here as ``[qp, wr, plan, ready]`` when the NIC
        #: takes it and transmits from the head while the head is ready.
        self.egress_queue: Deque[list] = deque()
        #: RTS normally; ERROR after a fault until :meth:`recover`
        self.state = QpState.RTS
        # statistics
        self.sends_posted = 0
        self.recvs_posted = 0
        self.rnr_drops = 0  # SENDs that arrived with no RECV posted
        self.flushed_wrs = 0  # sends posted while in the ERROR state

    def connect(self, machine_name: str, qpn: int) -> None:
        """Bind this connected QP to its one peer."""
        if not self.transport.connected:
            raise VerbError(
                "%s queue pairs are unconnected" % self.transport.value
            )
        if self.peer is not None:
            raise VerbError("queue pair already connected")
        self.peer = (machine_name, qpn)

    def destination_for(self, wr: WorkRequest) -> Tuple[str, int]:
        """Where this work request goes: the peer, or the WR's AH."""
        if not self.transport.connected:
            if wr.ah is None:
                raise VerbError(
                    "%s verbs require an address handle" % self.transport.value
                )
            return wr.ah
        if self.peer is None:
            raise VerbError("queue pair is not connected")
        if wr.ah is not None:
            raise VerbError("address handles are only for unconnected transports")
        return self.peer

    # -- error state --------------------------------------------------------

    def transition_to_error(self) -> None:
        """Move the QP to the ERROR state (fault injection).

        From here every posted send is flushed (a FLUSH_ERROR CQE when
        signaled) and inbound packets addressed to this QP are
        discarded.  Pre-posted RECVs are kept: this models the common
        recovery path where the application re-arms the same QP rather
        than tearing it down.
        """
        self.state = QpState.ERROR

    def recover(self) -> None:
        """Re-arm an ERROR QP (modelling the app's RESET->RTS walk)."""
        self.state = QpState.RTS

    # -- READ credits -------------------------------------------------------

    def take_read_credit(self) -> bool:
        """Consume one outstanding-READ slot; False if none available."""
        if self.read_credits <= 0:
            return False
        self.read_credits -= 1
        return True

    def return_read_credit(self) -> Optional[WorkRequest]:
        """Release a READ slot; returns a queued READ to issue, if any."""
        self.read_credits += 1
        if self.pending_reads:
            return self.pending_reads.popleft()
        return None
