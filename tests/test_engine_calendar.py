"""The sorted-run calendar against the reference heap calendar.

The event-engine overhaul replaced the single-heap calendar inside
:class:`~repro.sim.engine.Simulator` with a sorted-run design.  The
dispatch contract — strict (time, seq) order — is what every
deterministic fingerprint in this repo rests on, so these tests drive
the new calendar and :class:`~repro.sim.engine.HeapSimulator` (the old
algorithm, kept as a reference oracle) side by side through adversarial
schedules and demand *identical* dispatch sequences.

They also pin the regressions fixed alongside the overhaul: late
``add_callback`` ordering, per-simulator anonymous store names, and the
``FifoServer.utilization`` overhang clamp.
"""

import random

import pytest

from repro.obs import MetricsRegistry
from repro.sim import FifoServer, HeapSimulator, Simulator, Store

#: delays with deliberate repeats: same-instant ties and zero-delay
#: (immediate) events are where calendar designs usually break
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.25, 3.0, 7.5)


def _book_at(sim, time, value):
    """An event on the calendar's absolute-time entry, ``sim._schedule``."""
    event = sim.event()
    event.triggered = True
    event._value = value
    sim._schedule(time, event)
    return event


def _drive(sim, seed, n_seed_events=40, max_spawn=300):
    """Seed a cascading schedule; callbacks keep scheduling more events.

    Returns the dispatch log.  The RNG draws happen inside callbacks,
    so the log (and the schedule itself) is a faithful trace of the
    calendar's dispatch order — any ordering divergence between two
    engines snowballs and is caught by a plain list comparison.

    Three ways in: ``timeout`` (relative), the absolute-time entry with
    instants that are exactly ``now``, inside the open run window, on
    the whole-number grid the DELAYS also produce (ties with entries
    booked earlier *and* later) or far out, and a shared
    :class:`FifoServer` whose fused ``serve(service, value, latency)``
    books its completions through that same entry.
    """
    rng = random.Random(seed)
    log = []
    budget = [max_spawn]
    station = FifoServer(sim, "station")

    def spawn(tag):
        how = rng.randrange(4)
        if how == 0:
            return sim.timeout(rng.choice(DELAYS), tag)
        if how == 1:
            return station.serve(rng.choice(DELAYS), tag, rng.choice(DELAYS))
        if how == 2:
            return _book_at(sim, sim.now + rng.choice(DELAYS), tag)
        # the next few grid points at or after now: == now when now is
        # itself on the grid
        return _book_at(sim, float(-(-sim.now // 1) + rng.randrange(4)), tag)

    def cb(event):
        log.append((sim.now, event.value))
        if budget[0] > 0:
            budget[0] -= 1
            for _ in range(rng.randrange(3)):
                spawn(budget[0] * 1000 + rng.randrange(100)).add_callback(cb)

    for i in range(n_seed_events):
        spawn(i).add_callback(cb)
    return log


def _run_scenario(sim_cls, seed, chunk=None, steps=()):
    sim = sim_cls()
    if chunk is not None:
        sim.RUN_CHUNK = chunk
    log = _drive(sim, seed)
    for until in steps:
        sim.run(until=until)
        log.append(("ran-until", until, sim.now))
    sim.run_until_idle()
    log.append(("idle", sim.now))
    return log


def test_dispatch_order_matches_heap_reference():
    for seed in range(10):
        assert _run_scenario(Simulator, seed) == _run_scenario(HeapSimulator, seed)


def test_dispatch_order_matches_with_tiny_run_chunks():
    # Shrinking RUN_CHUNK forces many window boundaries (including
    # boundaries that would split a timestamp tie without the tie
    # extension) through the same schedule.
    for chunk in (1, 2, 3, 5):
        for seed in (0, 1, 2):
            assert _run_scenario(Simulator, seed, chunk=chunk) == _run_scenario(
                HeapSimulator, seed
            )


def test_dispatch_order_matches_across_stepped_runs():
    steps = (0.0, 1.0, 1.0, 2.5, 9.0)
    for seed in (3, 4, 5):
        assert _run_scenario(Simulator, seed, steps=steps) == _run_scenario(
            HeapSimulator, seed, steps=steps
        )


def _producer_consumer(sim_cls):
    sim = sim_cls()
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
    return log


def test_process_and_store_handoff_matches_heap_reference():
    assert _producer_consumer(Simulator) == _producer_consumer(HeapSimulator)


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
