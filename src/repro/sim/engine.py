"""Event calendar, events, and generator-based processes.

The simulator dispatches events in exact ``(time, sequence)`` order:
two events scheduled for the same instant fire in the order they were
scheduled.  Simulated time is a float number of nanoseconds.

The calendar is a three-tier structure tuned on the meta-engine
benchmarks (see docs/ENGINE.md for the profiles and the before/after
table):

* an **immediate deque** absorbs every zero-delay schedule — the
  ``succeed()`` / mailbox-handoff flood that dominates real workloads.
  Every immediate entry carries the *current* timestamp (``now`` cannot
  advance while any are queued), so the deque holds bare events: FIFO
  order is ``(time, seq)`` order and no timestamps are stored at all;
* future events go to **parallel pending arrays** (one list of floats,
  one list of events, appended in schedule order — scheduling is one
  compare and two ``list.append``\\ s).  When the dispatcher needs them
  it sorts the float array once with a *stable* C sort (numpy argsort)
  into the **active run** and walks it with a cursor.  Because pending
  entries are appended in increasing sequence order, a stable sort by
  time alone *is* a sort by ``(time, seq)`` — the tie-break never has
  to be materialised;
* the run is opened at most :attr:`Simulator.RUN_CHUNK` events at a
  time (extended over ties so equal timestamps never straddle the
  boundary).  Events that land **inside the open run window** go to a
  small overflow heap merged during dispatch; events beyond the window
  append to pending.  Chunking keeps the window — and therefore the
  overflow heap — small even when a far-future watchdog is pending.

Ordering at merge points never needs stored sequence numbers:

* overflow entries are always scheduled *after* every event in the
  active run (the run is rebuilt only when the heap is empty), so on a
  timestamp tie the run entry fires first — the merge compares times
  strictly;
* immediate entries are appended *after* any run/overflow entry that
  shares their timestamp could have been scheduled, so on a tie the
  calendar head fires first — again a strict comparison.

:class:`HeapSimulator` keeps the original single-binary-heap calendar
alive as a reference oracle: the property tests drive both engines over
identical schedules and assert identical dispatch sequences, and the
``engine`` lab sweep gates the sorted-run calendar's speedup against it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

import numpy as _np

_heappush = heapq.heappush
_heappop = heapq.heappop

_NEG_INF = float("-inf")

#: below this many pending entries, a pure-Python index sort beats the
#: numpy round trip (array creation dominates for tiny batches)
_NUMPY_SORT_MIN = 64


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
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
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

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)


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
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
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


def _open_run(
    times: List[float], events: List[Event]
) -> Tuple[List[float], List[Event]]:
    """Stably sorted copies of parallel (times, events) arrays.

    ``times``/``events`` are parallel and appended in schedule order, so
    a *stable* sort by time alone reproduces exact (time, seq) order.
    Large batches go through numpy (C sort on a float64 array, plus an
    O(n) already-sorted check that makes monotone schedules — a server
    admitting back-to-back jobs — free); small batches use a plain index
    sort, which beats the numpy round trip below ~64 entries.
    """
    n = len(times)
    if n >= _NUMPY_SORT_MIN:
        arr = _np.asarray(times)
        if not (arr[1:] < arr[:-1]).any():
            return list(times), list(events)
        order = arr.argsort(kind="stable")
        return arr[order].tolist(), [events[i] for i in order.tolist()]
    if n > 1:
        order = sorted(range(n), key=times.__getitem__)
        return [times[i] for i in order], [events[i] for i in order]
    return list(times), list(events)


class Simulator:
    """The event calendar and simulated clock (nanoseconds)."""

    #: observability creation hook (see :func:`repro.obs.session.capture`):
    #: when set, called with each new simulator so an ambient capture can
    #: attach ``sim.metrics`` / ``sim.tracer`` before any resources exist
    _obs_hook: Optional[Callable[["Simulator"], None]] = None

    #: how many pending events are sorted into the active run at a time.
    #: Small enough that one far-future watchdog does not stretch the
    #: run window over the whole simulation (which would push every
    #: subsequent schedule onto the overflow heap), large enough that
    #: the per-chunk sort amortises to nothing.  The equivalence
    #: property tests shrink it to stress the window-boundary logic.
    RUN_CHUNK = 4096

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        #: zero-delay entries; all at the current instant, FIFO == (time,
        #: seq) order by construction
        self._imm: Deque[Event] = deque()
        #: future events beyond the run window, unsorted, in seq order.
        #: These two lists are never rebound (only cleared), so the
        #: bound ``append``\\ s below stay valid for the simulator's life.
        self._pending_t: List[float] = []
        self._pending_e: List[Event] = []
        self._imm_append = self._imm.append
        self._pt_append = self._pending_t.append
        self._pe_append = self._pending_e.append
        #: the sorted run (parallel arrays) + read cursor + window end
        self._active_t: List[float] = []
        self._active_e: List[Event] = []
        self._ai = 0
        self._run_end = 0
        #: largest timestamp inside the open run window (-inf: closed)
        self._run_max = _NEG_INF
        #: entries that landed inside the open window while draining it
        self._cur_heap: List[Tuple[float, int, Event]] = []
        #: late-callback batching state (see Event.add_callback)
        self._late_flush: Optional[_LateFlush] = None
        self._late_seq = -1
        if Simulator._obs_hook is not None:
            Simulator._obs_hook(self)

    # -- scheduling -----------------------------------------------------

    def _schedule(self, time: float, event: Event) -> None:
        """Book ``event`` at the absolute instant ``time`` (>= now).

        The one scheduling primitive.  Absolute, so that a caller that
        knows *when* something finishes (a :class:`FifoServer` admission
        plus a fixed trailing latency) books the final instant directly
        instead of hopping through an intermediate entry.  The sequence
        number is taken here: among the entries of one instant, an
        event fires in the order it was *booked*.
        """
        self._seq += 1
        if time > self._run_max:
            # Beyond the open run window (or no window open): sorted
            # in bulk when the dispatcher gets there.
            self._pt_append(time)
            self._pe_append(event)
        elif time <= self.now:
            # The current instant (zero delay, or a positive delay that
            # collapses into it in float arithmetic): all immediate
            # entries share the current timestamp, so FIFO order is
            # (time, seq) order.
            self._imm_append(event)
        else:
            # Inside the open window: must interleave with the active
            # run, so pay the heap push.
            _heappush(self._cur_heap, (time, self._seq, event))

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now.

        Allocation and scheduling are inlined: ``sim.timeout`` is the
        front door for every modelled latency, and the constructor +
        ``_schedule`` call frames would double its cost.
        """
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        event = _new_timeout(Timeout)
        event.sim = self
        event.callbacks = []
        event._value = value
        event.triggered = True
        event._scheduled = True
        now = self.now
        time = now + delay
        self._seq += 1
        if time > self._run_max:
            self._pt_append(time)
            self._pe_append(event)
        elif time <= now:
            self._imm_append(event)
        else:
            _heappush(self._cur_heap, (time, self._seq, event))
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
        """Dispatch every event with ``time <= until`` in (time, seq) order.

        Invariants maintained by :meth:`_schedule` and this loop:

        * immediate entries all carry the *current* timestamp (appended
          at ``time == now``, and ``now`` cannot advance while any are
          queued) and were scheduled after any run/overflow entry that
          shares it, so the deque drains whenever the calendar head is
          strictly later than ``now`` — completely, since nothing a
          dispatch appends can precede it;
        * overflow-heap entries are ``<= run_max`` and pending entries
          are ``> run_max``, so the run + overflow heap can be merged
          and fully dispatched before pending is ever consulted, and the
          run is rebuilt only when the overflow heap is empty — which
          makes every overflow entry younger than every run entry, so
          the merge breaks timestamp ties toward the run with a strict
          comparison;
        * entries with equal timestamps never straddle the run-window
          boundary (the chunk cut is extended over ties), so seq order
          within an instant is preserved across window advances.
        """
        imm = self._imm
        cur_heap = self._cur_heap
        active_t = self._active_t
        active_e = self._active_e
        ai = self._ai
        run_end = self._run_end
        while True:
            if not imm and not cur_heap:
                # Fast path: nothing can preempt the sorted run — walk
                # it with an index until a dispatch schedules an
                # immediate or in-window event.
                while ai < run_end:
                    time = active_t[ai]
                    if time > until:
                        self._ai = ai
                        self._run_end = run_end
                        return
                    event = active_e[ai]
                    ai += 1
                    self.now = time
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
                        if imm or cur_heap:
                            break

            # -- next calendar entry (active run merged with overflow;
            # strict < breaks timestamp ties toward the older run entry)
            if ai < run_end:
                head_t = active_t[ai]
                if cur_heap and cur_heap[0][0] < head_t:
                    head_t = cur_heap[0][0]
                    from_heap = True
                else:
                    from_heap = False
            elif cur_heap:
                head_t = cur_heap[0][0]
                from_heap = True
            else:
                head_t = None
                from_heap = False

            # -- the immediate queue drains whenever the head is
            # strictly after the current instant.  `now` cannot advance
            # while it runs, and anything a dispatch schedules lands
            # behind it in the deque or strictly after `now` — so no
            # per-entry re-check is needed.
            if imm:
                if head_t is None or head_t > self.now:
                    while imm:
                        event = imm.popleft()
                        callbacks = event.callbacks
                        event.callbacks = None
                        if callbacks:
                            for fn in callbacks:
                                fn(event)
                    continue

            if head_t is None:
                # Run window exhausted: advance it.  The overflow heap
                # is empty here, so merging the undrained tail with
                # pending keeps global seq order: every tail entry is
                # older than every pending entry, and both runs are
                # individually in seq order.
                pending_t = self._pending_t
                n = len(active_t)
                if pending_t:
                    pending_e = self._pending_e
                    if ai == 1 == n and len(pending_t) == 1:
                        # Ping-pong steady state: one event in flight
                        # (a process re-arming its own timer).  Reuse
                        # the one-slot run in place — no sort, no
                        # allocation, no rebind.
                        time = active_t[0] = pending_t[0]
                        active_e[0] = pending_e[0]
                        del pending_t[:]
                        del pending_e[:]
                        ai = 0
                        run_end = 1
                        self._run_max = time
                        self._run_end = 1
                        continue
                    if ai < n:
                        rest_t = active_t[ai:]
                        rest_e = active_e[ai:]
                        rest_t.extend(pending_t)
                        rest_e.extend(pending_e)
                        active_t, active_e = _open_run(rest_t, rest_e)
                    else:
                        active_t, active_e = _open_run(pending_t, pending_e)
                    # The pending lists are cleared, never replaced —
                    # the bound appends in _schedule must stay live.
                    del pending_t[:]
                    del pending_e[:]
                    self._active_t = active_t
                    self._active_e = active_e
                    ai = 0
                    n = len(active_t)
                elif ai >= n:
                    # Calendar fully drained: close the window so
                    # schedules made between runs append to pending.
                    if n:
                        self._active_t = active_t = []
                        self._active_e = active_e = []
                    self._ai = ai = 0
                    self._run_end = run_end = 0
                    self._run_max = _NEG_INF
                    return
                run_end = ai + self.RUN_CHUNK
                if run_end >= n:
                    run_end = n
                else:
                    # Never split equal timestamps across the window
                    # boundary: a tie left outside would dispatch after
                    # in-window entries scheduled later.
                    cut = active_t[run_end - 1]
                    while run_end < n and active_t[run_end] == cut:
                        run_end += 1
                self._run_max = active_t[run_end - 1]
                self._run_end = run_end
                continue

            if head_t > until:
                self._ai = ai
                self._run_end = run_end
                return
            if from_heap:
                event = _heappop(cur_heap)[2]
            else:
                event = active_e[ai]
                ai += 1
            self.now = head_t
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for fn in callbacks:
                    fn(event)

    def run(self, until: float) -> None:
        """Advance the clock, dispatching events, until time ``until``.

        Events scheduled exactly at ``until`` do fire; the clock ends at
        ``until`` even if the calendar drains early.
        """
        if until < self.now:
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
        if limit < self.now:
            raise ValueError(
                "cannot run backwards: limit=%r < now=%r" % (limit, self.now)
            )
        self._drain(limit)
        if limit != float("inf"):
            self.now = limit

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when idle)."""
        if self._imm:
            return self.now
        best: Optional[float] = None
        if self._ai < len(self._active_t):
            best = self._active_t[self._ai]
        if self._cur_heap:
            t = self._cur_heap[0][0]
            if best is None or t < best:
                best = t
        if self._pending_t:
            t = min(self._pending_t)
            if best is None or t < best:
                best = t
        return best if best is not None else float("inf")


class HeapSimulator(Simulator):
    """The original single-binary-heap calendar, kept as an oracle.

    Scheduling pushes ``(time, seq, event)`` onto one heap; dispatch
    pops it.  Slower than the sorted-run calendar (every event pays
    ``log n`` interpreted tuple comparisons against the whole future),
    but trivially correct — the equivalence property tests and the
    ``engine`` lab sweep run it side by side with :class:`Simulator`.
    """

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Tuple[float, int, Event]] = []

    def _schedule(self, time: float, event: Event) -> None:
        self._seq += 1
        _heappush(self._heap, (time, self._seq, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Simulator.timeout inlines the sorted-run _schedule; the oracle
        # must route through its own.
        return Timeout(self, delay, value)

    def run(self, until: float) -> None:
        if until < self.now:
            raise ValueError("cannot run backwards: until=%r < now=%r" % (until, self.now))
        heap = self._heap
        while heap and heap[0][0] <= until:
            time, _seq, event = _heappop(heap)
            self.now = time
            event._dispatch()
        self.now = until

    def run_until_idle(self, limit: float = float("inf")) -> None:
        if limit < self.now:
            raise ValueError(
                "cannot run backwards: limit=%r < now=%r" % (limit, self.now)
            )
        heap = self._heap
        while heap and heap[0][0] <= limit:
            time, _seq, event = _heappop(heap)
            self.now = time
            event._dispatch()
        if limit != float("inf"):
            self.now = limit

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")


def all_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event that fires once every event in ``events`` has fired.

    The combined event's value is the list of the individual values in
    the order the events were given.
    """
    events = list(events)
    combined = Event(sim)
    remaining = [len(events)]
    values: List[Any] = [None] * len(events)
    if not events:
        combined.succeed([])
        return combined

    def make_callback(index: int) -> Callable[[Event], None]:
        def on_fire(event: Event) -> None:
            values[index] = event.value
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.succeed(values)

        return on_fire

    for index, event in enumerate(events):
        event.add_callback(make_callback(index))
    return combined
