"""The calendar's dispatch contract, and the regressions pinned with it.

:class:`~repro.sim.engine.Simulator` dispatches in strict ``(time, seq)``
order, where ``seq`` is the order entries were booked.  Every
deterministic fingerprint in this repo rests on that, so the property
test below checks it against the definition itself — the dispatch log
must equal the booking log sorted by ``(time, seq)`` — rather than
against a second kernel.

Also pinned here: late ``add_callback`` ordering, per-simulator
anonymous store names, and the ``FifoServer.utilization`` overhang
clamp.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.sim import FifoServer, Simulator, Store

#: delays with deliberate repeats: same-instant ties and zero-delay
#: events are where calendar designs usually break
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.25, 3.0, 7.5)

#: run(until) boundaries on the grid the delays produce, so entries land
#: exactly at ``until`` (they must fire in that run); a drawn list of
#: steps may name the same boundary twice
UNTILS = (0.0, 1.0, 2.0, 2.5, 3.0, 9.0)

INF = float("inf")


class _Schedule:
    """A cascading random schedule that records what it booked and saw.

    Entries come in through all three doors — ``timeout`` (relative),
    ``_schedule`` (absolute: at ``now``, ahead by a delay, or on the
    whole-number grid where it ties with entries booked earlier *and*
    later) and a shared :class:`FifoServer`'s fused ``serve`` — and in
    both kinds: an event with a callback, or (``serve(..., then=)``,
    ``_schedule(time, arg, fn)``) a bare call.  The two kinds share
    instants and one ``seq``.  Each dispatched entry books up to two
    more, so most of the schedule is made during dispatch.
    """

    def __init__(self, sim, seed, n_seed_events=40, max_spawn=300):
        self.sim = sim
        self.rng = random.Random(seed)
        self.station = FifoServer(sim, "station")
        self.station_free_at = 0.0
        self.budget = max_spawn
        self.booked = {}  # tag -> time, while still on the calendar
        self.expected = []  # every (time, seq, tag) ever booked
        self.fired = []  # (now, tag) in dispatch order
        for _ in range(n_seed_events):
            self.spawn()

    def spawn(self):
        sim, rng = self.sim, self.rng
        tag = len(self.expected)
        before = sim._seq
        how = rng.randrange(4)
        # a call on the calendar, no event (a timeout is always an event)
        bare = how != 0 and rng.random() < 0.5
        event = None
        if how == 0:
            delay = rng.choice(DELAYS)
            time = sim.now + delay
            event = sim.timeout(delay, tag)
        elif how == 1:
            service, latency = rng.choice(DELAYS), rng.choice(DELAYS)
            done_at = max(self.station_free_at, sim.now) + service
            self.station_free_at = done_at
            # the documented float expression of a fused completion
            time = (sim.now + (done_at - sim.now)) + latency
            if bare:
                assert self.station.serve(service, tag, latency, self.dispatched) is None
            else:
                event = self.station.serve(service, tag, latency)
        else:
            if how == 2:
                time = sim.now + rng.choice(DELAYS)
            else:  # the next few grid points at or after now
                time = float(-(-sim.now // 1) + rng.randrange(4))
            if bare:
                sim._schedule(time, tag, self.dispatched)
            else:
                event = sim.event()
                event.triggered = True
                event._value = tag
                sim._schedule(time, event)
        assert sim._seq == before + 1  # one calendar entry per booking
        self.booked[tag] = time
        self.expected.append((time, sim._seq, tag))
        if event is not None:
            event.add_callback(self.on_fire)

    def next_instant(self):
        return min(self.booked.values(), default=INF)

    def on_fire(self, event):
        self.dispatched(event.value)

    def dispatched(self, tag):
        sim = self.sim
        assert sim.now == self.booked.pop(tag)
        self.fired.append((sim.now, tag))
        # nothing earlier is left behind, and peek() names what is next
        assert sim.peek() == self.next_instant() >= sim.now
        if self.budget > 0:
            self.budget -= 1
            for _ in range(self.rng.randrange(3)):
                self.spawn()
            assert sim.peek() == self.next_instant()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(UNTILS), max_size=6).map(sorted),
)
def test_dispatch_order_is_booking_order_sorted_by_time_then_seq(seed, steps):
    sim = Simulator()
    schedule = _Schedule(sim, seed)
    assert sim.peek() == schedule.next_instant()
    for until in steps:
        sim.run(until=until)
        assert sim.now == until
        # everything at or before ``until`` fired, including entries
        # booked for exactly ``until`` while that instant was dispatching
        assert sim.peek() == schedule.next_instant() > until
    sim.run_until_idle()
    assert not schedule.booked and sim.peek() == INF
    assert schedule.fired == [(time, tag) for time, _seq, tag in sorted(schedule.expected)]


def test_process_and_store_handoff_alternates_between_waiting_getters():
    sim = Simulator()
    store = Store(sim)
    log = []

    def producer():
        for i in range(50):
            yield sim.timeout(1.0 if i % 3 else 0.0)
            store.put(i)

    def consumer(tag):
        while True:
            item = yield store.get()
            log.append((sim.now, tag, item))
            if item == 49:
                return

    sim.process(producer())
    sim.process(consumer("a"))
    sim.process(consumer("b"))
    sim.run_until_idle()
    # items arrive in order, at the instant they were put, and the two
    # getters take turns (each re-queues behind the other)
    assert [item for _now, _tag, item in log] == list(range(50))
    assert [tag for _now, tag, _item in log] == ["a", "b"] * 25
    puts = []
    now = 0.0
    for i in range(50):
        now += 1.0 if i % 3 else 0.0
        puts.append(now)
    assert [at for at, _tag, _item in log] == puts


# ---------------------------------------------------------------------------
# late add_callback (post-dispatch) regression
# ---------------------------------------------------------------------------


def test_late_callbacks_batch_and_preserve_add_order():
    sim = Simulator()
    event = sim.event()
    event.succeed("v")
    sim.run_until_idle()
    got = []
    event.add_callback(lambda e: got.append(("a", e.value)))
    event.add_callback(lambda e: got.append(("b", e.value)))
    # both ride one deferred dispatch; neither runs synchronously
    assert got == []
    sim.run_until_idle()
    assert got == [("a", "v"), ("b", "v")]


def test_late_callback_runs_before_later_scheduled_events():
    sim = Simulator()
    event = sim.event()
    event.succeed("late")
    sim.run_until_idle()
    order = []
    sim.timeout(5.0, "future").add_callback(lambda e: order.append(e.value))
    event.add_callback(lambda e: order.append(e.value))
    sim.run_until_idle()
    assert order == ["late", "future"]


def test_late_callback_added_during_its_own_flush_still_runs():
    sim = Simulator()
    event = sim.event()
    event.succeed("x")
    sim.run_until_idle()
    got = []

    def first(e):
        got.append("first")
        e.add_callback(lambda _e: got.append("second"))

    event.add_callback(first)
    sim.run_until_idle()
    assert got == ["first", "second"]


# ---------------------------------------------------------------------------
# Store: anonymous metric names are per simulator
# ---------------------------------------------------------------------------


def test_anonymous_store_names_restart_per_simulator():
    # Pre-fix a process-global class counter kept incrementing, so the
    # metric names a run emitted depended on how many simulators had
    # already run in the same process.
    def build():
        sim = Simulator()
        sim.metrics = MetricsRegistry(sim)
        return [Store(sim).name for _ in range(3)]

    first = build()
    second = build()
    assert first == second == ["store1", "store2", "store3"]


def test_named_stores_do_not_consume_anonymous_numbers():
    sim = Simulator()
    sim.metrics = MetricsRegistry(sim)
    assert Store(sim, "cq").name == "cq"
    assert Store(sim).name == "store1"


# ---------------------------------------------------------------------------
# FifoServer.utilization: clamp service not yet performed
# ---------------------------------------------------------------------------


def test_utilization_clamps_in_flight_overhang():
    sim = Simulator()
    server = FifoServer(sim, "s")
    server.serve(100.0)
    sim.run(until=50.0)
    # 50 of the 100 ns have actually been worked; pre-fix this said 2.0
    assert server.utilization(50.0) == pytest.approx(1.0)


def test_utilization_clamps_each_busy_slot():
    sim = Simulator()
    server = FifoServer(sim, "s", capacity=2)
    server.serve(100.0)
    server.serve(60.0)
    sim.run(until=20.0)
    # each slot has worked 20 ns of its job: 40 / (20 * 2)
    assert server.utilization(20.0) == pytest.approx(1.0)


def test_utilization_unchanged_once_jobs_finish():
    sim = Simulator()
    server = FifoServer(sim, "s")
    server.serve(30.0)
    sim.run(until=60.0)
    assert server.utilization(60.0) == pytest.approx(0.5)
