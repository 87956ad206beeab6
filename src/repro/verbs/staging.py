"""The staging ring un-inlined sends are copied through.

Above the inline limit a payload is posted zero-copy: the NIC DMA-reads
it when it fetches the WQE, after ``post_send`` has returned (Figure 1
step 3), so a staged byte belongs to the NIC until that fetch.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim import Event
from repro.verbs.types import Opcode, WorkRequest


class StagingRing:
    """A registered buffer, a cursor that wraps to 0 when a payload would
    cross the end, and one extent per staged WR until the NIC fetches it.

    :meth:`send` / :meth:`write` copy the payload in and return the WR to
    post, or None while its extent overlaps one still awaiting its fetch;
    the sender then yields :meth:`wait` and tries again.  The WR's
    ``on_fetched`` frees the extent: the device calls it at the DMA fetch
    and when it flushes the WR at post on an ERROR-state QP.
    """

    __slots__ = ("sim", "mr", "size", "waits", "_cursor", "_inflight", "_freed")

    def __init__(self, device, size: int) -> None:
        self.sim = device.sim
        self.mr = device.register_memory(size)
        self.size = size
        #: times a sender found the ring full and waited for a fetch
        self.waits = 0
        self._cursor = 0
        #: start -> end of each staged extent the NIC has not fetched
        self._inflight: Dict[int, int] = {}
        #: what senders on a full ring wait on: the next fetch
        self._freed: Optional[Event] = None

    @property
    def in_flight(self) -> int:
        """Staged extents the NIC has not fetched yet."""
        return len(self._inflight)

    def send(
        self, payload: bytes, ah: Optional[Tuple[str, int]] = None, signaled: bool = False
    ) -> Optional[WorkRequest]:
        """A SEND of ``payload`` out of the ring, or None while it is full."""
        offset = self._claim(payload)
        if offset is None:
            return None
        return WorkRequest(
            Opcode.SEND, local=(self.mr, offset, len(payload)), signaled=signaled,
            ah=ah, on_fetched=self._fetched,
        )

    def write(
        self, payload: bytes, raddr: int, rkey: int, signaled: bool = False
    ) -> Optional[WorkRequest]:
        """A WRITE of ``payload`` to ``raddr``, or None while it is full."""
        offset = self._claim(payload)
        if offset is None:
            return None
        return WorkRequest(
            Opcode.WRITE, local=(self.mr, offset, len(payload)), raddr=raddr,
            rkey=rkey, signaled=signaled, on_fetched=self._fetched,
        )

    def wait(self) -> Event:
        """What a sender yields after a full ring: the next fetch."""
        self.waits += 1
        if self._freed is None:
            self._freed = self.sim.event()
        return self._freed

    def _claim(self, payload: bytes) -> Optional[int]:
        size = len(payload)
        if size > self.size:
            raise ValueError(
                "payload of %d B exceeds the %d B staging ring; payloads "
                "this large cannot be sent un-inlined" % (size, self.size)
            )
        start = self._cursor
        if start + size > self.size:
            start = 0
        end = start + size
        for in_start, in_end in self._inflight.items():
            if start < in_end and end > in_start:
                return None
        self._inflight[start] = end
        self.mr.write(start, payload)
        self._cursor = end
        return start

    def _fetched(self, wr: WorkRequest) -> None:
        del self._inflight[wr.local[1]]
        freed = self._freed
        if freed is not None:
            self._freed = None
            freed.succeed()
