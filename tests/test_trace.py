"""Tests for the event tracer (Figure 1's instrumentation)."""

import pytest

from repro.bench.trace import Tracer, _run_one, fig1
from repro.herd import HerdCluster, HerdConfig
from repro.hw import APT, Fabric, Machine
from repro.obs import MetricsRegistry, capture
from repro.sim import Simulator
from repro.verbs import RdmaDevice, Transport, WorkRequest, connect_pair
from repro.workloads import Workload


def test_tracer_records_spans_and_marks():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.span("stationA", 0.0, 10.0, "work")
    sim.run(until=5.0)
    tracer.mark("stationB", "tick")
    assert len(tracer.events) == 2
    assert tracer.events[1].start_ns == tracer.events[1].end_ns == 5.0


def test_render_sorts_by_time():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.span("late", 100.0, 110.0)
    tracer.span("early", 1.0, 2.0)
    out = tracer.render("t")
    assert out.index("early") < out.index("late")


def test_untraced_simulations_record_nothing():
    """Tracing is strictly opt-in: a plain Simulator has no tracer and
    the hot paths skip all instrumentation."""
    sim = Simulator()
    fabric = Fabric(sim, APT)
    server = RdmaDevice(Machine(sim, fabric, "s"))
    client = RdmaDevice(Machine(sim, fabric, "c"))
    mr = server.register_memory(128)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(
        cqp, WorkRequest.write(raddr=mr.addr, rkey=mr.rkey, payload=b"x", inline=True, signaled=False)
    )
    sim.run_until_idle()
    assert not hasattr(sim, "tracer")
    assert mr.read(0, 1) == b"x"


def test_traced_write_shows_pio_nic_wire_dma_order():
    out = _run_one("WRITE, inlined, unreliable, unsignaled")
    pio = out.index("requester.pcie.pio")
    nic = out.index("requester.nic.tx")
    wire = out.index("wire requester->responder")
    dma = out.index("responder.pcie.dma")
    assert pio < nic < wire < dma


def test_fig1_covers_all_four_verbs():
    out = fig1()
    for verb in ("WRITE, inlined", "WRITE (signaled, RC)", "READ", "SEND/RECV (UD)"):
        assert verb in out


def _small_herd():
    cluster = HerdCluster(HerdConfig(n_server_processes=2, window=2), n_client_machines=2)
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=64))
    cluster.preload(range(64), 32)
    return cluster


def test_a_tracer_attached_after_building_fails_loudly():
    """The stations cache ``sim.tracer`` when they are built, so a late
    one would silently trace nothing: the window refuses to open."""
    cluster = _small_herd()
    cluster.sim.tracer = Tracer(cluster.sim)
    with pytest.raises(RuntimeError, match=r"repro\.obs\.capture"):
        cluster.run(warmup_ns=0, measure_ns=5_000)
    assert cluster.sim.now == 0.0  # nothing ran


def test_a_tracer_detached_after_building_fails_loudly():
    with capture(metrics=False, trace=True):
        cluster = _small_herd()
    del cluster.sim.tracer
    with pytest.raises(RuntimeError, match="sim.tracer changed"):
        cluster.run(warmup_ns=0, measure_ns=5_000)


def test_capture_attaches_before_building_and_traces_the_run():
    with capture(metrics=False, trace=True) as session:
        cluster = _small_herd()
        result = cluster.run(warmup_ns=0, measure_ns=5_000)
    assert result.ops > 0
    tracer = cluster.sim.tracer
    assert session.runs[0].tracer is tracer
    stations = {event.station for event in tracer.events}
    assert {"server.pcie.pio", "wire cm0->server"} <= stations


def test_late_metrics_registry_is_still_allowed():
    """Only the tracer is checked: a registry attached after building
    (tests/test_qos_overload.py counts client counters that way) runs."""
    cluster = _small_herd()
    cluster.sim.metrics = MetricsRegistry(cluster.sim)
    assert cluster.run(warmup_ns=0, measure_ns=5_000).ops > 0
