"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Event, Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_fires_at_requested_time():
    sim = Simulator()
    fired = []
    sim.timeout(100.0).add_callback(lambda e: fired.append(sim.now))
    sim.run(until=50.0)
    assert fired == []
    sim.run(until=100.0)
    assert fired == [100.0]


def test_run_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=500.0)
    assert sim.now == 500.0


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "entry",
    [
        lambda sim: sim.timeout(NAN),
        lambda sim: Timeout(sim, NAN),
        lambda sim: sim.event().succeed(delay=NAN),
        lambda sim: sim.run(until=NAN),
        lambda sim: sim.run_until_idle(limit=NAN),
    ],
    ids=["timeout", "Timeout", "succeed-delay", "run-until", "run_until_idle-limit"],
)
def test_nan_is_rejected_at_every_calendar_entry_point(entry):
    # NaN passes a ``< 0`` guard and compares false against everything:
    # one in the heap breaks the ordering of every later entry, one as a
    # run horizon becomes the clock.
    sim = Simulator()
    with pytest.raises(ValueError):
        entry(sim)
    assert sim.peek() == float("inf")  # nothing was booked
    assert sim.now == 0.0


def test_events_fire_in_schedule_order_at_same_instant():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.timeout(10.0, tag).add_callback(lambda e: order.append(e.value))
    sim.run(until=10.0)
    assert order == ["a", "b", "c"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    event = sim.event()
    got = []
    event.add_callback(lambda e: got.append(e.value))
    event.succeed(42)
    sim.run_until_idle()
    assert got == [42]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_callback_added_after_dispatch_still_runs():
    sim = Simulator()
    event = sim.event()
    event.succeed("late")
    sim.run_until_idle()
    got = []
    event.add_callback(lambda e: got.append(e.value))
    sim.run_until_idle()
    assert got == ["late"]


def test_process_waits_on_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(25.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(75.0)
        trace.append(("end", sim.now))

    sim.process(proc())
    sim.run_until_idle()
    assert trace == [("start", 0.0), ("mid", 25.0), ("end", 100.0)]


def test_process_receives_event_value():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.timeout(5.0, "payload")
        seen.append(value)

    sim.process(proc())
    sim.run_until_idle()
    assert seen == ["payload"]


def test_process_is_event_with_return_value():
    sim = Simulator()

    def inner():
        yield sim.timeout(10.0)
        return "done"

    def outer(results):
        value = yield sim.process(inner())
        results.append((sim.now, value))

    results = []
    sim.process(outer(results))
    sim.run_until_idle()
    assert results == [(10.0, "done")]


def test_process_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad(), name="bad")
    with pytest.raises(TypeError):
        sim.run_until_idle()


def test_call_in_runs_plain_callback():
    sim = Simulator()
    ticks = []
    sim.call_in(30.0, lambda: ticks.append(sim.now))
    sim.run_until_idle()
    assert ticks == [30.0]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(12.0)
    assert sim.peek() == 12.0


def test_many_processes_interleave_deterministically():
    def run_once():
        sim = Simulator()
        log = []

        def worker(wid, period):
            for _ in range(5):
                yield sim.timeout(period)
                log.append((sim.now, wid))

        for wid, period in enumerate((7.0, 11.0, 13.0)):
            sim.process(worker(wid, period))
        sim.run_until_idle()
        return log

    assert run_once() == run_once()


def test_bounded_run_until_idle_advances_clock_to_limit():
    """Pre-fix the clock stopped at the last event, so back-to-back
    bounded drains drifted earlier than the requested horizon."""
    sim = Simulator()
    sim.timeout(10.0)
    sim.run_until_idle(limit=100.0)
    assert sim.now == 100.0


def test_bounded_run_until_idle_with_no_events_still_advances():
    sim = Simulator()
    sim.run_until_idle(limit=50.0)
    assert sim.now == 50.0


def test_unbounded_run_until_idle_ends_at_last_event():
    sim = Simulator()
    sim.timeout(10.0)
    sim.timeout(25.0)
    sim.run_until_idle()
    assert sim.now == 25.0


def test_run_until_idle_rejects_backwards_limit():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run_until_idle()
    with pytest.raises(ValueError):
        sim.run_until_idle(limit=5.0)
