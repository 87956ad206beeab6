"""Completion queues.

The NIC pushes completion events into a CQ with a DMA write (that cost
is charged by the device datapath); applications either block on
:meth:`CompletionQueue.pop` inside a simulator process or drain with
:meth:`poll` in a spin loop.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim import Event, Simulator, Store
from repro.verbs.types import Cqe


class CompletionQueue:
    """A FIFO of completion entries."""

    def __init__(self, sim: Simulator, name: str = "cq") -> None:
        self.sim = sim
        self.name = name
        #: the CQE mailbox; a process may block on it like any Store
        self.store = Store(sim, name)
        self.pushed = 0

    def push(self, cqe: Cqe) -> None:
        """Called by the device when a completion lands (post-DMA)."""
        cqe.timestamp = self.sim.now
        self.pushed += 1
        self.store.put(cqe)

    def pop(self) -> Event:
        """Event firing with the next CQE (blocks a sim process)."""
        return self.store.get()

    def poll(self, max_entries: int = 16) -> List[Cqe]:
        """Drain up to ``max_entries`` CQEs without waiting."""
        out: List[Cqe] = []
        while len(out) < max_entries:
            cqe = self.store.try_get()
            if cqe is None:
                break
            out.append(cqe)
        return out

    def try_pop(self) -> Optional[Cqe]:
        """Pop a single CQE if one is pending."""
        return self.store.try_get()

    def __len__(self) -> int:
        return len(self.store)
