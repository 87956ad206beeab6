"""Tests for the fabric, machine wiring, and memory system."""

import pytest

from repro.faults import FaultPlan
from repro.hw import APT, Fabric, Machine, MemorySystem
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    fabric = Fabric(sim, APT)
    a = Machine(sim, fabric, "a")
    b = Machine(sim, fabric, "b")
    return sim, fabric, a, b


def test_packet_delivery_and_delay():
    sim, fabric, a, b = make_pair()
    got = []
    b.attach_packet_handler(lambda pkt: got.append((pkt, sim.now)))
    a.transmit("b", "hello", wire_bytes=70)
    sim.run_until_idle()
    expected = 70 / APT.link_bw + APT.wire_delay_ns
    assert got == [("hello", pytest.approx(expected))]


def test_transmissions_serialize_on_source_port():
    sim, fabric, a, b = make_pair()
    got = []
    b.attach_packet_handler(lambda pkt: got.append(sim.now))
    for _ in range(3):
        a.transmit("b", "p", wire_bytes=700)
    sim.run_until_idle()
    tx = 700 / APT.link_bw
    assert got == [pytest.approx(i * tx + APT.wire_delay_ns) for i in (1, 2, 3)]


def test_different_sources_do_not_contend():
    sim = Simulator()
    fabric = Fabric(sim, APT)
    machines = [Machine(sim, fabric, "m%d" % i) for i in range(3)]
    sink = Machine(sim, fabric, "sink")
    got = []
    sink.attach_packet_handler(lambda pkt: got.append(sim.now))
    for m in machines:
        m.transmit("sink", "p", wire_bytes=70)
    sim.run_until_idle()
    # All three arrive at the same instant: separate source ports.
    assert len(set(got)) == 1


def test_duplicate_attach_rejected():
    sim = Simulator()
    fabric = Fabric(sim, APT)
    Machine(sim, fabric, "a")
    with pytest.raises(ValueError):
        Machine(sim, fabric, "a")


def test_delivery_without_handler_raises():
    sim, fabric, a, b = make_pair()
    a.transmit("b", "p", wire_bytes=70)
    with pytest.raises(RuntimeError):
        sim.run_until_idle()


def test_unknown_destination_is_rejected_before_anything_is_counted():
    sim, fabric, a, b = make_pair()
    hooked = []
    fabric.fault_hook = lambda *args: hooked.append(args)
    with pytest.raises(ValueError) as excinfo:
        fabric.transmit("a", "nope", "p", wire_bytes=70)
    # names both ends, and the packet that never left is not counted,
    # judged or booked
    assert "'a'" in str(excinfo.value) and "'nope'" in str(excinfo.value)
    assert (a.port.tx_packets, a.port.tx_bytes) == (0, 0)
    assert hooked == [] and sim._seq == 0


def test_ud_send_to_an_unknown_machine_raises_value_error():
    # how a user gets there: an address handle naming no machine
    from repro.verbs import RdmaDevice, Transport, WorkRequest

    sim, fabric, a, b = make_pair()
    device = RdmaDevice(a)
    qp = device.create_qp(Transport.UD)
    device.post_send(
        qp, WorkRequest.send(payload=b"x" * 8, inline=True, ah=("nope", 1))
    )
    with pytest.raises(ValueError, match="'a'.*'nope'"):
        sim.run_until_idle()
    assert a.port.tx_packets == 0


def test_bit_errors_drop_packets():
    sim, fabric, a, b = make_pair()
    got = []
    b.attach_packet_handler(lambda pkt: got.append(pkt))
    FaultPlan(seed=1).uniform_loss(1.0).install(fabric)
    a.transmit("b", "p", wire_bytes=70)
    sim.run_until_idle()
    assert got == []
    assert fabric.dropped == 1


def test_port_statistics():
    sim, fabric, a, b = make_pair()
    b.attach_packet_handler(lambda pkt: None)
    a.transmit("b", "p", wire_bytes=100)
    a.transmit("b", "q", wire_bytes=200)
    sim.run_until_idle()
    assert a.port.tx_packets == 2
    assert a.port.tx_bytes == 300


def test_machine_profile_defaults_to_fabric_profile():
    sim = Simulator()
    fabric = Fabric(sim, APT)
    m = Machine(sim, fabric, "m")
    assert m.profile is APT


# ---------------------------------------------------------------------------
# MemorySystem
# ---------------------------------------------------------------------------


def test_cold_access_costs_dram_latency():
    mem = MemorySystem(APT)
    assert mem.access("bucket:1") == APT.dram_ns


def test_prefetched_access_is_cheap_and_single_use():
    mem = MemorySystem(APT)
    mem.prefetch("bucket:1")
    assert mem.access("bucket:1") == APT.prefetch_hit_ns
    # Prefetch coverage is consumed.
    assert mem.access("bucket:1") == APT.dram_ns


def test_memory_counters():
    mem = MemorySystem(APT)
    mem.prefetch("x")
    mem.access("x")
    mem.access("y")
    assert mem.accesses == 2
    assert mem.prefetch_hits == 1


def test_anonymous_access_pricing():
    mem = MemorySystem(APT)
    assert mem.random_access_ns(prefetched=True) == APT.prefetch_hit_ns
    assert mem.random_access_ns(prefetched=False) == APT.dram_ns
