"""HERD's request pipeline (Section 4.1.1).

To mask DRAM latency without driver-level batching, HERD pipelines
requests at the application level: when a request is in stage *i* it
performs its *i*-th memory access, for which a prefetch was issued in
the previous stage.  The pipeline is as deep as MICA's worst-case
access count (two), so a request's response is sent while the *next*
request's memory is being prefetched — the prefetches hide behind
``post_send()``.

A server that sees no new request for ``NOOP_AFTER_POLLS`` consecutive
poll iterations pushes a *no-op* bubble so the requests already in the
pipeline still complete (the deadlock avoidance rule from the paper).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

T = TypeVar("T")


class RequestPipeline(Generic[T]):
    """A fixed-depth FIFO of in-flight requests."""

    def __init__(self, depth: int = 2) -> None:
        if depth < 1:
            raise ValueError("pipeline depth must be >= 1")
        self.depth = depth
        self._stages: Deque[T] = deque()
        self.noops = 0

    def push(self, item: Optional[T]) -> Optional[T]:
        """Advance the pipeline by one slot.

        ``item`` is the newly detected request, or ``None`` for a no-op
        bubble.  Returns the request that just completed its final
        stage (None when a bubble pops out or the pipeline is filling).
        """
        if item is None:
            # A bubble advances real work toward completion.
            self.noops += 1
            return self._stages.popleft() if self._stages else None
        completed: Optional[T] = None
        if len(self._stages) >= self.depth:
            completed = self._stages.popleft()
        self._stages.append(item)
        return completed

    def __len__(self) -> int:
        return len(self._stages)

    def __bool__(self) -> bool:
        return bool(self._stages)
