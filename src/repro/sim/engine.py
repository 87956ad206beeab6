"""Event calendar, events, and generator-based processes.

The simulator dispatches events in exact ``(time, sequence)`` order:
two events scheduled for the same instant fire in the order they were
scheduled.  Simulated time is a float number of nanoseconds.

The calendar is one binary heap of ``(time, seq, fn, arg)`` tuples:
scheduling is ``seq += 1; heappush``, dispatch pops the smallest tuple.
``seq`` is unique, so the comparison never reaches ``fn`` and the heap
order *is* the dispatch contract.  An entry with ``fn is None`` carries
an :class:`Event` in ``arg`` — something a process or several callbacks
may wait on; any other entry is a plain call ``fn(arg)``, which is what
a fire-and-forget stage (one value, one handler, nobody waiting) books
instead of allocating an event to carry them.  What the profiles showed
to matter is around the heap, not in it (docs/ENGINE.md): ``timeout()``
and the resources allocate their pre-triggered events inline, and the
dispatch loop runs callbacks without a per-event method call.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` marks it
    triggered, records its value, and schedules its callbacks to run at
    the current simulation time.  Events may be triggered at most once.
    """

    __slots__ = ("sim", "callbacks", "_value", "triggered", "_scheduled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self.triggered = False
        self._scheduled = False

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (``None`` until then)."""
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event, delivering ``value`` to all waiters.

        With a ``delay`` the waiters run that many ns from now, on the
        event's own calendar entry (no intermediate timeout).
        """
        if self.triggered:
            raise RuntimeError("event already triggered")
        if not (delay >= 0):  # also rejects NaN, which would unsort the heap
            raise ValueError("negative or NaN delay: %r" % delay)
        self.triggered = True
        self._value = value
        sim = self.sim
        sim._schedule(sim.now + delay, self)
        self._scheduled = True
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires.

        If the event has already been dispatched, ``fn`` runs at the
        current simulation time (never synchronously), preserving
        deterministic ordering.  Late callbacks are batched: consecutive
        registrations with no intervening schedule share one calendar
        entry instead of allocating a proxy event each (the entries
        they saved could only ever have been adjacent, so the dispatch
        order is exactly the per-proxy order).
        """
        callbacks = self.callbacks
        if callbacks is None:
            # Already dispatched: run the callback via the calendar so
            # it still fires in deterministic order, batching with the
            # previous late callback when nothing was scheduled since.
            sim = self.sim
            flush = sim._late_flush
            if (
                flush is not None
                and sim._late_seq == sim._seq
                and flush.callbacks is not None
            ):
                flush.pairs.append((self, fn))
                return
            flush = _LateFlush.__new__(_LateFlush)
            flush.sim = sim
            flush.pairs = [(self, fn)]
            flush.callbacks = [_run_late_pairs]
            flush._value = None
            flush.triggered = True
            flush._scheduled = True
            sim._schedule(sim.now, flush)
            sim._late_flush = flush
            sim._late_seq = sim._seq
        else:
            callbacks.append(fn)


class _LateFlush(Event):
    """One calendar entry carrying a batch of late-added callbacks."""

    __slots__ = ("pairs",)


def _run_late_pairs(flush: "_LateFlush") -> None:
    for event, fn in flush.pairs:
        fn(event)


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not (delay >= 0):
            raise ValueError("negative or NaN delay: %r" % delay)
        # Inlined Event.__init__ — Timeouts are the single hottest
        # allocation in the simulator and the super() chain costs more
        # than the attribute stores themselves.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self.triggered = True
        self._scheduled = True
        sim._schedule(sim.now + delay, self)


_new_timeout = Timeout.__new__


class Process(Event):
    """A coroutine driven by the simulator.

    The wrapped generator ``yield``s :class:`Event` instances; the
    process resumes when the yielded event fires, receiving the event's
    value as the result of the ``yield`` expression.  A process is
    itself an event that fires (with the generator's return value) when
    the generator finishes.
    """

    __slots__ = ("_gen", "_send", "_on_fire", "name")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: str = "process",
    ) -> None:
        super().__init__(sim)
        self._gen = gen
        # One bound ``send`` and one bound ``_resume`` for the whole
        # process lifetime — resuming is the hottest call chain in every
        # process-driven model and rebinding them per yield costs more
        # than the generator switch itself.
        self._send = gen.send
        self._on_fire = self._resume
        self.name = name
        # Kick off the generator via the calendar so that construction
        # order does not matter within a time step.
        start = Event(sim)
        start.callbacks.append(self._on_fire)
        start.succeed()

    def _resume(self, completed: Event) -> None:
        try:
            target = self._send(completed._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        try:
            callbacks = target.callbacks
        except AttributeError:
            raise TypeError(
                "%s yielded %r; processes must yield Event instances"
                % (self.name, target)
            ) from None
        if callbacks is None:
            target.add_callback(self._on_fire)
        else:
            callbacks.append(self._on_fire)


class Simulator:
    """The event calendar and simulated clock (nanoseconds)."""

    #: observability creation hook (see :func:`repro.obs.session.capture`):
    #: when set, called with each new simulator so an ambient capture can
    #: attach ``sim.metrics`` / ``sim.tracer`` before any resources exist
    _obs_hook: Optional[Callable[["Simulator"], None]] = None

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, Optional[Callable[[Any], None]], Any]] = []
        #: late-callback batching state (see Event.add_callback)
        self._late_flush: Optional[_LateFlush] = None
        self._late_seq = -1
        if Simulator._obs_hook is not None:
            Simulator._obs_hook(self)

    # -- scheduling -----------------------------------------------------

    def _schedule(
        self, time: float, arg: Any, fn: Optional[Callable[[Any], None]] = None
    ) -> None:
        """Book an entry at the absolute instant ``time`` (>= now).

        The one scheduling primitive.  Without ``fn``, ``arg`` is an
        :class:`Event` whose callbacks run at ``time``; with it, the
        entry is the bare call ``fn(arg)``.  Absolute, so that a caller
        that knows *when* something finishes (a :class:`FifoServer`
        admission plus a fixed trailing latency) books the final instant
        directly instead of hopping through an intermediate entry.  The
        sequence number is taken here: among the entries of one instant,
        an entry fires in the order it was *booked*, whichever kind it is.
        """
        self._seq += 1
        _heappush(self._heap, (time, self._seq, fn, arg))

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now.

        Allocation and scheduling are inlined: ``sim.timeout`` is the
        front door for every modelled latency, and the constructor +
        ``_schedule`` call frames would double its cost.
        """
        if not (delay >= 0):
            raise ValueError("negative or NaN delay: %r" % delay)
        event = _new_timeout(Timeout)
        event.sim = self
        event.callbacks = []
        event._value = value
        event.triggered = True
        event._scheduled = True
        self._seq += 1
        _heappush(self._heap, (self.now + delay, self._seq, None, event))
        return event

    def process(
        self, gen: Generator[Event, Any, Any], name: str = "process"
    ) -> Process:
        """Register a generator as a running process."""
        return Process(self, gen, name)

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callback ``delay`` ns from now."""
        event = self.timeout(delay)
        event.callbacks.append(lambda _e: fn())

    # -- execution ------------------------------------------------------

    def _drain(self, until: float) -> None:
        """Dispatch every entry with ``time <= until`` in (time, seq) order."""
        heap = self._heap
        while heap and heap[0][0] <= until:
            self.now, _seq, fn, arg = _heappop(heap)
            if fn is not None:
                fn(arg)
            else:
                callbacks = arg.callbacks
                arg.callbacks = None
                if callbacks:
                    for fn in callbacks:
                        fn(arg)

    def run(self, until: float) -> None:
        """Advance the clock, dispatching events, until time ``until``.

        Events scheduled exactly at ``until`` do fire; the clock ends at
        ``until`` even if the calendar drains early.
        """
        if not (until >= self.now):  # also rejects NaN
            raise ValueError("cannot run backwards: until=%r < now=%r" % (until, self.now))
        self._drain(until)
        self.now = until

    def run_until_idle(self, limit: float = float("inf")) -> None:
        """Dispatch every pending event (bounded by ``limit``).

        With a finite ``limit`` the clock ends at ``limit`` (exactly
        like :meth:`run`), even when the calendar drains early —
        otherwise rates and utilizations computed from ``sim.now``
        after a bounded drain would be silently inflated.
        """
        if not (limit >= self.now):
            raise ValueError(
                "cannot run backwards: limit=%r < now=%r" % (limit, self.now)
            )
        self._drain(limit)
        if limit != float("inf"):
            self.now = limit

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when idle)."""
        return self._heap[0][0] if self._heap else float("inf")

