"""The PCIe bus between a host CPU/DRAM and its RNIC.

Three serialised paths are modelled, because the paper's results hinge
on their asymmetry (Section 3.2.2):

* **PIO** — the CPU writes WQEs into the NIC through write-combining
  buffers.  Cost is per 64-byte cacheline, which produces the stepwise
  throughput decline of inlined WRITEs at 64-byte payload intervals
  (Figure 4b).
* **DMA read** — *non-posted* transactions: the NIC must keep request
  state until the completion returns, so these are expensive.  Fetching
  a non-inlined payload costs several transactions (WQE fetch, address
  translation, payload fetch).
* **DMA write** — *posted* transactions: fire-and-forget, cheap.

Each path separates *occupancy* (which limits throughput) from
*pipeline latency* (which delays an individual transaction but is
overlapped across transactions).  The DMA engine is a deterministic
FIFO, so a transaction's finish time — occupancy end plus the fixed
latency — is known the moment it is admitted: a DMA read or write is one
calendar entry (``FifoServer.serve(occupancy, latency=...)``), an atomic
two (its memory mutation runs at the occupancy end, its result is ready
one latency later).  ``pio_write`` / ``dma_read`` / ``dma_write`` pass
``then`` through to ``serve``: with it the entry is the call
``then(value)`` and nothing is returned; without it the caller gets the
event to await.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import Event, FifoServer, Simulator
from repro.hw.params import HardwareProfile


class PcieBus:
    """One host's PCIe connection to its RNIC."""

    def __init__(self, sim: Simulator, profile: HardwareProfile, name: str = "pcie") -> None:
        self.sim = sim
        self.profile = profile
        self.pio = FifoServer(sim, name + ".pio")
        #: one DMA engine serves reads and writes: completion-event DMA
        #: writes steal capacity from payload DMA — the "extra overhead
        #: on the RNIC's PCIe bus" of Section 2.2.2 that makes selective
        #: signaling worth using
        self.dma = FifoServer(sim, name + ".dma")

    # -- PIO --------------------------------------------------------------

    def pio_write(
        self,
        wqe_bytes: int,
        value: Any = None,
        then: Optional[Callable[[Any], None]] = None,
    ) -> Optional[Event]:
        """Push one WQE (doorbell included) through write-combining PIO.

        The event fires with ``value`` (or ``then(value)`` runs).
        """
        return self.pio.serve(self.profile.pio_ns(wqe_bytes), value, 0.0, then)

    def doorbell(self) -> Event:
        """Ring a bare doorbell (no WQE body), e.g. for batched RECVs."""
        return self.pio.serve(self.profile.pio_base_ns)

    # -- DMA --------------------------------------------------------------

    def dma_read(
        self,
        payload_bytes: int,
        transactions: int = 1,
        value: Any = None,
        then: Optional[Callable[[Any], None]] = None,
    ) -> Optional[Event]:
        """NIC-initiated read of host memory (non-posted).

        ``transactions`` counts the round trips the engine must issue;
        occupancy scales with transactions and payload, while the
        pipeline latency is paid once.  The event fires with ``value``
        (or ``then(value)`` runs).
        """
        p = self.profile
        occupancy = p.dma_read_ns * transactions + payload_bytes / p.pcie_bw
        return self.dma.serve(occupancy, value, p.dma_read_latency_ns, then)

    def dma_write(
        self,
        payload_bytes: int,
        value: Any = None,
        then: Optional[Callable[[Any], None]] = None,
    ) -> Optional[Event]:
        """NIC-initiated write into host memory (posted).

        The event fires with ``value`` once the data has landed (or
        ``then(value)`` runs then).
        """
        p = self.profile
        occupancy = p.dma_write_ns + payload_bytes / p.pcie_bw
        return self.dma.serve(occupancy, value, p.dma_write_latency_ns, then)

    def dma_atomic(self, on_locked: Optional[Callable[[], None]] = None) -> Event:
        """A locked read-modify-write for a remote atomic (CmpSwap/FetchAdd).

        ConnectX NICs implement IB atomics as a non-posted read plus a
        posted write-back issued under an internal lock that stalls the
        DMA engine for the whole round trip — which is what makes
        atomics an order of magnitude slower than READs and, crucially,
        *serialised per device*: the single ``dma`` FifoServer never
        overlaps two occupancy periods, so two concurrent atomics
        targeting this host execute one after the other.

        ``on_locked`` runs exactly at the end of the occupancy period —
        the serialisation point — so the caller's memory mutation is
        atomic with respect to every other atomic on this bus.  The
        returned event fires after the pipeline latency, when the
        original value is available to send back.
        """
        p = self.profile
        occupancy = (
            p.dma_read_ns
            + p.pcie_atomic_ns
            + p.dma_write_ns
            + 16 / p.pcie_bw  # one quadword each way
        )
        done = self.sim.event()

        def _unlocked(_e: Event) -> None:
            if on_locked is not None:
                on_locked()
            done.succeed(delay=p.dma_read_latency_ns)

        self.dma.serve(occupancy).callbacks.append(_unlocked)
        return done
