"""The request region: HERD's shared, polled request memory (Section 4.2).

One contiguous registered region on the server machine, created by an
initializer process and mapped by every server process (the paper uses
``shmget``; here all server processes simply hold a reference).  It is
divided into per-server-process chunks, subdivided into per-client
chunks of W slots::

    slot(s, c, w)  at  (s * NC * W + c * W + w) * SLOT_BYTES

Server process ``s``, having seen ``r`` requests from client ``c``,
polls slot ``s*(W*NC) + c*W + (r mod W)`` — the formula from the paper.

Polling is modelled with an arrival queue per server process: the
verbs layer notifies the region when a WRITE's DMA lands, and the
region routes the notification to the owning server process.  The
*detection latency* and *CPU cost* of polling are still charged by the
server loop; only the busy-wait spinning is elided from the event
calendar.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim import Simulator, Store
from repro.verbs import MemoryRegion, RdmaDevice
from repro.herd.config import SLOT_BYTES, HerdConfig
from repro.herd.wire import KEYHASH_BYTES, decode_request, framing_of


class RequestRegion:
    """The server's request memory plus slot geometry."""

    def __init__(
        self,
        sim: Simulator,
        device: RdmaDevice,
        config: HerdConfig,
        n_clients: int,
    ) -> None:
        self.sim = sim
        self.config = config
        self.framing = framing_of(config)
        self.n_clients = n_clients
        self.mr: MemoryRegion = device.register_memory(config.region_bytes(n_clients))
        self.mr.on_write = self._on_write
        #: per-server-process arrival queues of (client, window slot)
        self.arrivals: List[Store] = [
            Store(sim, "region.arrivals.s%d" % s)
            for s in range(config.n_server_processes)
        ]
        self.requests_seen = 0
        #: QoS mode: stamp each arrival with its landing time so the
        #: server can compute queueing sojourn (CoDel's input).  Stamped
        #: arrivals are ``(client, window_slot, arrived_ns)`` 3-tuples —
        #: the stamp rides *in* the queued item because ``Store.put``
        #: hands items straight to a waiting getter, bypassing the queue
        self.stamp_arrivals = False

    # -- geometry ---------------------------------------------------------

    def slot_index(self, server: int, client: int, window_slot: int) -> int:
        cfg = self.config
        if not 0 <= server < cfg.n_server_processes:
            raise IndexError("server %d out of range" % server)
        if not 0 <= client < self.n_clients:
            raise IndexError("client %d out of range" % client)
        if not 0 <= window_slot < cfg.window:
            raise IndexError("window slot %d out of range" % window_slot)
        return server * (self.n_clients * cfg.window) + client * cfg.window + window_slot

    def slot_offset(self, server: int, client: int, window_slot: int) -> int:
        return self.slot_index(server, client, window_slot) * SLOT_BYTES

    def slot_addr(self, server: int, client: int, window_slot: int) -> int:
        """The remote virtual address clients WRITE to."""
        return self.mr.addr + self.slot_offset(server, client, window_slot)

    def locate(self, offset: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`slot_offset` for an arbitrary region offset."""
        index = offset // SLOT_BYTES
        per_server = self.n_clients * self.config.window
        server, rest = divmod(index, per_server)
        client, window_slot = divmod(rest, self.config.window)
        return server, client, window_slot

    # -- server-side access -------------------------------------------------

    def read_slot(self, server: int, client: int, window_slot: int):
        """Decode the request in a slot: ``(operation, epoch)``, or None
        if the slot is free."""
        offset = self.slot_offset(server, client, window_slot)
        return decode_request(
            self.mr.buf, self.framing, start=offset, end=offset + SLOT_BYTES
        )

    def clear_slot(self, server: int, client: int, window_slot: int) -> None:
        """Zero the keyhash, freeing the slot for the client's next
        request (the server does this after sending the response)."""
        offset = (
            self.slot_offset(server, client, window_slot)
            + SLOT_BYTES
            - KEYHASH_BYTES
        )
        self.mr.write(offset, b"\x00" * KEYHASH_BYTES)

    def scan_partition(self, server: int) -> List[Tuple[int, int]]:
        """Slots in ``server``'s chunk still holding a live request.

        The request region is shared memory: it survives a server
        *process* crash.  A recovering process re-scans its chunk for
        non-zero keyhashes — the ground truth for what remains
        unanswered, since a slot's keyhash is only zeroed *after* its
        response was posted.  Requests written while the process was
        down are found the same way.
        """
        live: List[Tuple[int, int]] = []
        keyhash_at = SLOT_BYTES - KEYHASH_BYTES
        for client in range(self.n_clients):
            for window_slot in range(self.config.window):
                offset = self.slot_offset(server, client, window_slot)
                if any(self.mr.read(offset + keyhash_at, KEYHASH_BYTES)):
                    live.append((client, window_slot))
        return live

    # -- polling support ------------------------------------------------------

    def _on_write(self, offset: int, _length: int) -> None:
        server, client, window_slot = self.locate(offset)
        self.requests_seen += 1
        if self.stamp_arrivals:
            self.arrivals[server].put((client, window_slot, self.sim.now))
        else:
            self.arrivals[server].put((client, window_slot))
