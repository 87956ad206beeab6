"""The fused datapath against the multi-hop chains it replaced.

``FifoServer.serve(service, value, latency)`` books a job's completion
*and* a fixed trailing latency as one calendar entry at an absolute
time; ``PcieBus.dma_read``/``dma_write`` and ``Fabric.transmit`` are
built on it, and ``RdmaDevice`` releases a QP's WQEs from an in-order
queue instead of an event chain.  The pre-fusion code — ``serve`` →
``call_in(latency)`` → ``done.succeed()`` — lives on only here, as the
oracle: the fused path must fire at bit-identical instants, leave the
station's accounting untouched, and cost exactly the calendar entries
budgeted below (so a re-added hop fails tier-1 without any host-time
measurement).  Between two entries the datapath is straight-line code
reading a per-shape send plan; section (d) budgets the Python-level
calls a verb costs, so a re-added closure or helper hop fails too, and
the ``Event`` objects it allocates: a stage nobody awaits is booked as
``serve(..., then=stage)``, a bare call on the calendar.
"""

import gc
import os
import random
import sys

import pytest

import repro.sim

from repro.bench.trace import FIG1_VERBS, run_verb
from repro.hw import APT, Fabric, Machine, PcieBus
from repro.sim import Event, FifoServer, Simulator, Timeout
from repro.verbs import RdmaDevice, RecvRequest, Transport, WorkRequest, connect_pair
from repro.verbs.packets import PacketKind

# ---------------------------------------------------------------------------
# (a) fused serve == serve + call_in + succeed
# ---------------------------------------------------------------------------

#: repeats, zeros and non-representable decimals: ties, zero-latency
#: fusion and rounding are where a wrong float expression would show
STEPS = (0.0, 0.0, 0.1, 0.7, 1.0, 3.3, 17.25, 250.0)


def _reference_serve(sim, server, service, latency, on_done):
    """The pre-fusion chain, verbatim from the old ``PcieBus.dma_read``."""
    done = sim.event()
    served = server.serve(service)
    served.add_callback(lambda _e: sim.call_in(latency, done.succeed))
    done.add_callback(on_done)


def _fused_serve_awaited(sim, server, service, latency, on_done):
    server.serve(service, latency=latency).add_callback(on_done)


def _fused_serve_then(sim, server, service, latency, on_done):
    assert server.serve(service, None, latency, on_done) is None


def _random_jobs(seed, n=200):
    rng = random.Random(seed)

    def draw():
        return rng.choice(STEPS) if rng.random() < 0.5 else rng.random() * 400.0

    return [(draw(), draw(), draw()) for _ in range(n)]


def _drive(admit, jobs, capacity):
    sim = Simulator()
    server = FifoServer(sim, "station", capacity=capacity)
    fired = [None] * len(jobs)

    def arrivals():
        # Admissions happen inside dispatch ...
        for i, (advance, service, latency) in enumerate(jobs):
            yield sim.timeout(advance)
            admit(
                sim, server, service, latency,
                lambda _done, i=i: fired.__setitem__(i, sim.now),
            )

    sim.process(arrivals())
    # ... and the run is cut into windows so some completions straddle
    # a run() boundary.
    for until in (50.0, 50.0, 1_000.0, 20_000.0):
        sim.run(until=until)
    sim.run_until_idle()
    return fired, server, sim


@pytest.mark.parametrize("capacity", (1, 3))
def test_fused_serve_fires_when_the_two_hop_chain_did(capacity):
    for seed in range(8):
        jobs = _random_jobs(seed)
        ref, r_server, r_sim = _drive(_reference_serve, jobs, capacity)
        for fused_serve in (_fused_serve_awaited, _fused_serve_then):
            fused, f_server, f_sim = _drive(fused_serve, jobs, capacity)
            assert None not in fused
            assert fused == ref  # bit-equal floats, not approx
            assert f_sim.now == r_sim.now
            assert f_server.jobs == r_server.jobs == len(jobs)
            assert f_server.busy_time == r_server.busy_time
            assert f_server.utilization(f_sim.now) == r_server.utilization(r_sim.now)
            # one entry per admission where the chain spent three
            assert r_sim._seq - f_sim._seq == 2 * len(jobs)


def test_trailing_latency_occupies_nothing():
    sim = Simulator()
    server = FifoServer(sim, "station")
    fired = []
    for _ in range(3):
        server.serve(10.0, latency=100.0).add_callback(lambda _e: fired.append(sim.now))
    sim.run_until_idle()
    assert fired == [110.0, 120.0, 130.0]
    assert server.busy_time == 30.0


def test_negative_latency_and_delay_are_rejected():
    # the calendar primitive takes absolute times on trust; the entries
    # that compute them must not let one land in the past
    sim = Simulator()
    server = FifoServer(sim, "station")
    with pytest.raises(ValueError):
        server.serve(1.0, latency=-0.5)
    with pytest.raises(ValueError):
        sim.event().succeed(delay=-1.0)
    # ... nor when the entry is a bare call instead of an event
    nan, fired = float("nan"), []
    for service, latency in ((-1.0, 0.0), (1.0, -0.5), (nan, 0.0), (1.0, nan)):
        with pytest.raises(ValueError):
            server.serve(service, "job", latency, then=fired.append)
    sim.run_until_idle()
    assert fired == [] and sim._seq == 0 and server.jobs == 0


def test_dma_atomic_mutates_at_the_occupancy_end_in_two_entries():
    sim = Simulator()
    bus = PcieBus(sim, APT)
    log = []
    bus.dma_write(64)  # the atomic queues behind it on the one DMA engine
    busy_until = bus.dma.delay_until_free()
    done = bus.dma_atomic(on_locked=lambda: log.append(("locked", sim.now)))
    done.add_callback(lambda _e: log.append(("done", sim.now)))
    locked_at = bus.dma.delay_until_free()
    assert locked_at > busy_until
    sim.run_until_idle()
    assert log == [("locked", locked_at), ("done", locked_at + APT.dma_read_latency_ns)]
    assert sim._seq == 3  # the write, the locked window, the delayed result


# ---------------------------------------------------------------------------
# (b) a QP's WQEs reach the wire in post order
# ---------------------------------------------------------------------------


def _post_order_run(seed, transport, n=60):
    rng = random.Random(seed)
    sim = Simulator()
    fabric = Fabric(sim, APT)
    responder = RdmaDevice(Machine(sim, fabric, "responder"))
    requester = RdmaDevice(Machine(sim, fabric, "requester"))
    _rqp, qp = connect_pair(responder, requester, transport)
    remote = responder.register_memory(1 << 16)
    src = requester.register_memory(1 << 16)

    ready_at, wire_at = {}, []
    wqe_ready, transmit = requester._wqe_ready, fabric.transmit

    def spy_ready(wqe):
        ready_at[wqe[1].wr_id] = sim.now
        wqe_ready(wqe)

    def spy_transmit(src_name, dst, packet, wire_bytes):
        if packet.kind is PacketKind.WRITE:
            wire_at.append((packet.wr.wr_id, sim.now))
        transmit(src_name, dst, packet, wire_bytes)

    requester._wqe_ready = spy_ready
    fabric.transmit = spy_transmit

    def poster():
        for wr_id in range(n):
            if rng.random() < 0.5:
                wr = WorkRequest.write(
                    raddr=remote.addr, rkey=remote.rkey, wr_id=wr_id, signaled=False,
                    payload=b"i" * rng.choice((8, 32, 128)), inline=True,
                )
            else:
                wr = WorkRequest.write(
                    raddr=remote.addr, rkey=remote.rkey, wr_id=wr_id, signaled=False,
                    local=(src, 0, rng.choice((64, 1024, 4096))),
                )
            requester.post_send(qp, wr)
            if rng.random() < 0.4:  # otherwise: a back-to-back burst
                yield sim.timeout(rng.choice((0.0, 40.0, 900.0)))

    sim.process(poster())
    sim.run_until_idle()
    return ready_at, wire_at, n


@pytest.mark.parametrize("transport", (Transport.UC, Transport.RC))
def test_mixed_inline_and_fetched_wqes_leave_in_post_order(transport):
    held_back = 0
    for seed in range(6):
        ready_at, wire_at, n = _post_order_run(seed, transport)
        assert [wr_id for wr_id, _t in wire_at] == list(range(n))
        previous = float("-inf")
        for wr_id, at in wire_at:
            # released in the callback that made it and every predecessor
            # ready: never before its own ready time, never later than needed
            assert at == max(ready_at[wr_id], previous)
            held_back += ready_at[wr_id] < previous
            previous = at
    # the mixes must actually exercise the queue (an inlined WQE becoming
    # ready while a fetched predecessor is still on the PCIe bus)
    assert held_back > 0


# ---------------------------------------------------------------------------
# (c) calendar-entry budgets of the four Figure 1 flows
# ---------------------------------------------------------------------------

#: entries scheduled from post_send to idle.  Inlined UC WRITE: PIO, NIC
#: egress, wire hop, NIC ingress, DMA write.  The others add a payload
#: fetch / response / ACK / CQE at one entry per station visited.
ENTRY_BUDGET = dict(zip(FIG1_VERBS, (5, 10, 10, 6)))


@pytest.mark.parametrize("kind", FIG1_VERBS)
def test_single_verb_calendar_entry_budget(kind):
    assert run_verb(kind)._seq == ENTRY_BUDGET[kind]


# ---------------------------------------------------------------------------
# (d) steady-state Python-call budgets of the same four flows
# ---------------------------------------------------------------------------


def _steady_state_world(kind, posts):
    """Two APT machines; one process builds and posts ``posts`` verbs of
    ``kind`` through ``post_send_timed``, idling 5 us after each."""
    sim = Simulator()
    fabric = Fabric(sim, APT)
    requester = RdmaDevice(Machine(sim, fabric, "requester"))
    responder = RdmaDevice(Machine(sim, fabric, "responder"))
    remote = responder.register_memory(4096)
    sink = requester.register_memory(4096)
    src = requester.register_memory(4096)
    if kind == "WRITE, inlined, unreliable, unsignaled":
        _rqp, qp = connect_pair(responder, requester, Transport.UC)
        make = lambda: WorkRequest.write(  # noqa: E731
            raddr=remote.addr, rkey=remote.rkey, payload=b"w" * 32,
            inline=True, signaled=False,
        )
    elif kind == "WRITE (signaled, RC)":
        _rqp, qp = connect_pair(responder, requester, Transport.RC)
        make = lambda: WorkRequest.write(  # noqa: E731
            raddr=remote.addr, rkey=remote.rkey, local=(src, 0, 32), signaled=True
        )
    elif kind == "READ":
        _rqp, qp = connect_pair(responder, requester, Transport.RC)
        make = lambda: WorkRequest.read(  # noqa: E731
            raddr=remote.addr, rkey=remote.rkey, local=(sink, 0, 32)
        )
    else:
        rqp = responder.create_qp(Transport.UD)
        inbox = responder.register_memory(4096)
        for wr_id in range(posts):
            responder.post_recv(rqp, RecvRequest(wr_id, (inbox, 0, 2048)))
        qp = requester.create_qp(Transport.UD)
        make = lambda: WorkRequest.send(  # noqa: E731
            payload=b"s" * 32, inline=True, signaled=False,
            ah=("responder", rqp.qpn),
        )

    def poster():
        for _ in range(posts):
            yield from requester.post_send_timed(qp, make())
            yield sim.timeout(5_000.0)

    sim.process(poster())
    return sim


#: every way an event comes to exist: the class called (``__init__``
#: runs), or ``__new__`` called bare by the kernel's inlined constructions
_EVENT_INITS = {Event.__init__.__code__, Timeout.__init__.__code__}
_SIM_DIR = os.path.dirname(repro.sim.__file__)


def _calls_events_and_entries(kind, posts):
    sim = _steady_state_world(kind, posts)
    calls = events = 0

    def count(frame, event, arg):
        nonlocal calls, events
        if event == "call":
            calls += 1
            events += frame.f_code in _EVENT_INITS
        elif event == "c_call":
            events += (
                arg is object.__new__
                and os.path.dirname(frame.f_code.co_filename) == _SIM_DIR
            )

    # A cyclic-GC pass inside the window would book the calls it makes
    # (finalising generators other tests left behind) to this verb.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        sim.run_until_idle()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, events, sim._seq


#: Python-level calls (function entries and generator resumes, as
#: ``sys.setprofile`` counts them) per verb in steady state, harness
#: included: building the WR, ``post_send_timed``, the idle timeout.
#: Before send plans and the closure-free ingress: 66 / 106 / 103 / 73.
CALL_BUDGET = dict(zip(FIG1_VERBS, (44, 75, 78, 51)))
#: the flows of (c) plus the post_send_ns and idle timeouts
STEADY_ENTRIES = dict(zip(FIG1_VERBS, (7, 12, 12, 8)))
#: ``Event`` objects per verb: the three the poster awaits — its
#: post_send_ns timeout, the PIO write, its idle timeout.  Every other
#: entry is a stage nobody waits on.  (Before ``then=``: one per entry.)
EVENT_BUDGET = 3


@pytest.mark.parametrize("kind", FIG1_VERBS)
def test_steady_state_python_call_budget(kind):
    # the difference of two run lengths cancels set-up and first-post
    # costs (process start, plan building, QP-cache misses)
    calls_200, _events, entries_200 = _calls_events_and_entries(kind, 200)
    calls_100, _events, entries_100 = _calls_events_and_entries(kind, 100)
    assert (entries_200 - entries_100) / 100 == STEADY_ENTRIES[kind]
    assert (calls_200 - calls_100) / 100 <= CALL_BUDGET[kind]


@pytest.mark.parametrize("kind", FIG1_VERBS)
def test_steady_state_event_allocation_budget(kind):
    _calls, events_200, _entries = _calls_events_and_entries(kind, 200)
    _calls, events_100, _entries = _calls_events_and_entries(kind, 100)
    assert (events_200 - events_100) / 100 == EVENT_BUDGET
