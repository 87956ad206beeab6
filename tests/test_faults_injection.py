"""The fault injector against live verbs hardware and HERD clusters."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.herd import HerdCluster, HerdConfig
from repro.hw import APT, Fabric, Machine
from repro.sim import Simulator
from repro.verbs import (
    CqeStatus,
    QpState,
    RdmaDevice,
    RecvRequest,
    Transport,
    WorkRequest,
    connect_pair,
)
from repro.workloads import Workload


def make_world(n_clients=1):
    sim = Simulator()
    fabric = Fabric(sim, APT)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    clients = [RdmaDevice(Machine(sim, fabric, "c%d" % i)) for i in range(n_clients)]
    return sim, fabric, server, clients


def write_wr(mr, payload=b"hello"):
    return WorkRequest.write(
        raddr=mr.addr, rkey=mr.rkey, payload=payload, inline=True, signaled=False
    )


# ---------------------------------------------------------------------------
# Link-level faults on a bare fabric
# ---------------------------------------------------------------------------


def test_plan_drop_loses_the_write():
    sim, fabric, server, (client,) = make_world()
    plan = FaultPlan(seed=1).drop(dst="server", rate=1.0)
    injector = plan.install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(cqp, write_wr(mr))
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"\x00" * 5
    assert injector.counts["link.drop"] == 1
    assert fabric.dropped == 1


def test_corruption_burns_ingress_capacity_then_discards():
    """A corrupted packet is not a drop: it crosses the wire, occupies
    the receiving NIC's ingress engine, and only then fails the ICRC."""
    sim, fabric, server, (client,) = make_world()
    injector = FaultPlan(seed=1).corrupt(dst="server", rate=1.0).install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(cqp, write_wr(mr))
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"\x00" * 5   # payload never landed
    assert server.icrc_drops == 1          # ...but the NIC saw it
    assert fabric.corrupted == 1
    assert injector.counts["link.corrupt"] == 1


def test_corrupt_packets_count_against_the_wire():
    sim, fabric, server, (client,) = make_world()
    FaultPlan(seed=1).corrupt(rate=1.0).install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    before = fabric.ports["c0"].tx_packets
    client.post_send(cqp, write_wr(mr))
    sim.run_until_idle(limit=10_000_000)
    assert fabric.ports["c0"].tx_packets == before + 1


def test_duplicate_delivers_extra_copies():
    sim, fabric, server, (client,) = make_world()
    injector = (
        FaultPlan(seed=1).duplicate(dst="server", rate=1.0, copies=1).install(fabric)
    )
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(cqp, write_wr(mr))
    sim.run_until_idle(limit=10_000_000)
    assert server.writes_received == 2
    assert fabric.duplicated == 1
    assert injector.counts["link.duplicate"] == 1


def test_delay_postpones_delivery():
    sim, fabric, server, (client,) = make_world()
    FaultPlan(seed=1).delay(50_000.0, dst="server").install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(cqp, write_wr(mr))
    sim.run(until=40_000.0)
    assert mr.read(0, 5) == b"\x00" * 5   # still in flight
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"hello"


def test_windowed_rule_stops_matching_after_end():
    sim, fabric, server, (client,) = make_world()
    FaultPlan(seed=1).drop(dst="server", rate=1.0, end_ns=1_000.0).install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    sim.call_in(5_000.0, lambda: client.post_send(cqp, write_wr(mr)))
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"hello"


def test_uniform_loss_drops_every_packet():
    sim, fabric, server, (client,) = make_world()
    FaultPlan(seed=1).uniform_loss(1.0).install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(cqp, write_wr(mr))
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"\x00" * 5
    assert fabric.dropped == 1


def test_second_injector_on_same_fabric_is_rejected():
    sim, fabric, server, clients = make_world()
    FaultPlan(seed=1).drop(rate=0.5).install(fabric)
    with pytest.raises(RuntimeError):
        FaultPlan(seed=2).drop(rate=0.5).install(fabric)


def test_deactivate_stops_injection():
    sim, fabric, server, (client,) = make_world()
    injector = FaultPlan(seed=1).drop(dst="server", rate=1.0).install(fabric)
    injector.deactivate()
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(cqp, write_wr(mr))
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"hello"


# ---------------------------------------------------------------------------
# NIC / QP faults
# ---------------------------------------------------------------------------


def test_nic_stall_delays_ingress_processing():
    sim, fabric, server, (client,) = make_world()
    plan = FaultPlan(seed=1).nic_stall(
        "server", engine="ingress", at_ns=0.0, duration_ns=80_000.0
    )
    injector = FaultInjector(plan, fabric, devices={"server": server, "c0": client})
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(cqp, write_wr(mr))
    sim.run(until=40_000.0)
    assert mr.read(0, 5) == b"\x00" * 5   # stuck behind the stalled engine
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"hello"
    assert injector.counts["nic_stall"] == 1


def test_qp_error_flushes_sends_and_drops_inbound():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    cqp.transition_to_error()
    assert cqp.state is QpState.ERROR
    wr = WorkRequest.write(
        raddr=mr.addr, rkey=mr.rkey, payload=b"x", inline=True, signaled=True, wr_id=9
    )
    client.post_send(cqp, wr)
    sim.run_until_idle(limit=10_000_000)
    (cqe,) = cqp.send_cq.poll()
    assert cqe.status is CqeStatus.FLUSH_ERROR and cqe.wr_id == 9
    assert cqp.flushed_wrs == 1
    assert mr.read(0, 1) == b"\x00"


def test_qp_error_rule_fires_and_recovers():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    plan = FaultPlan(seed=1).qp_error(
        "c0", qpn=cqp.qpn, at_ns=0.0, recover_after_ns=50_000.0
    )
    injector = FaultInjector(plan, fabric, devices={"server": server, "c0": client})
    sim.run(until=10_000.0)
    assert cqp.state is QpState.ERROR
    sim.run(until=60_000.0)
    assert cqp.state is QpState.RTS
    assert injector.counts == {"qp_error": 1, "qp_recovery": 1}
    client.post_send(cqp, write_wr(mr))
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"hello"


def test_inbound_packets_to_error_qp_are_discarded():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    sqp, cqp = connect_pair(server, client, Transport.UC)
    sqp.transition_to_error()
    client.post_send(cqp, write_wr(mr))
    sim.run_until_idle(limit=10_000_000)
    assert mr.read(0, 5) == b"\x00" * 5
    assert server.qp_error_drops == 1


def test_rnr_rule_drops_sends_without_consuming_the_recv():
    sim, fabric, server, (client,) = make_world()
    plan = FaultPlan(seed=1).rnr("c0", rate=1.0, end_ns=50_000.0)
    injector = FaultInjector(plan, fabric, devices={"server": server, "c0": client})
    rq = client.create_qp(Transport.UD)
    rmr = client.register_memory(4096)
    client.post_recv(rq, RecvRequest(wr_id=1, local=(rmr, 0, 1024)))
    sq = server.create_qp(Transport.UD)
    server.post_send(
        sq,
        WorkRequest.send(payload=b"resp", inline=True, signaled=False, ah=("c0", rq.qpn)),
    )
    sim.run_until_idle(limit=10_000_000)
    assert rq.rnr_drops == 1
    assert injector.counts["rnr_drop"] == 1
    assert len(rq.recv_queue) == 1  # the posted RECV survived
    # After the window, a retried SEND lands in that same RECV.
    server.post_send(
        sq,
        WorkRequest.send(payload=b"resp", inline=True, signaled=False, ah=("c0", rq.qpn)),
    )
    sim.run_until_idle(limit=100_000_000)
    assert len(rq.recv_cq) == 1


# ---------------------------------------------------------------------------
# RC retransmission under injected loss (satellite: duplicate-ACK branch)
# ---------------------------------------------------------------------------


def test_rc_retransmits_through_plan_injected_loss():
    sim, fabric, server, (client,) = make_world()
    FaultPlan(seed=5).drop(dst="server", rate=0.5, packet_kind="WRITE").install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    client.post_send(cqp, write_wr(mr, b"durable"))
    sim.run_until_idle(limit=100_000_000)
    assert mr.read(0, 7) == b"durable"


def test_duplicated_acks_hit_the_duplicate_ack_branch():
    """An ACK delivered twice: the second finds nothing unacked and is
    counted, not misapplied to the next WR."""
    sim, fabric, server, (client,) = make_world()
    FaultPlan(seed=5).duplicate(src="server", rate=1.0, packet_kind="ACK").install(
        fabric
    )
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    client.post_send(
        cqp,
        WorkRequest.write(
            raddr=mr.addr, rkey=mr.rkey, payload=b"x", inline=True, signaled=True
        ),
    )
    sim.run_until_idle(limit=100_000_000)
    assert mr.read(0, 1) == b"x"
    assert client.duplicate_acks == 1
    assert len(cqp.send_cq.poll()) == 1  # exactly one completion
    assert not cqp.unacked


# ---------------------------------------------------------------------------
# HERD client under duplication (satellite: RECV-replenish accounting)
# ---------------------------------------------------------------------------


def duplicating_cluster(seed=21):
    cluster = HerdCluster(
        HerdConfig(n_server_processes=2, window=2, retry_timeout_ns=40_000.0),
        n_client_machines=2,
        seed=seed,
    )
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=256))
    cluster.preload(range(256), 32)
    cluster.install_faults(
        FaultPlan(seed=seed).duplicate(src="server", rate=0.1, dup_delay_ns=2_000.0)
    )
    return cluster


def test_duplicate_responses_are_absorbed_and_recvs_replenished():
    cluster = duplicating_cluster()
    result = cluster.run(warmup_ns=0, measure_ns=400_000)
    dupes = sum(c.duplicate_responses for c in cluster.clients)
    assert dupes > 0
    assert result.ops > 300
    assert sum(c.failures for c in cluster.clients) == 0
    # RECV accounting: one posted RECV per pending (or quarantined) op,
    # per server — a leak here would strand the next response.
    for client in cluster.clients:
        for s in range(cluster.config.n_server_processes):
            assert len(client._recv_order[s]) == len(client._pending[s]) + len(
                client._quarantined[s]
            )


def test_duplication_never_completes_an_op_twice():
    cluster = duplicating_cluster(seed=22)
    cluster.run(warmup_ns=0, measure_ns=400_000)
    for client in cluster.clients:
        assert client.completed + client.outstanding + client.abandoned == client.issued


def test_multi_burst_rnr_keeps_recv_accounting_balanced():
    """Repeated RECV-exhaustion bursts at the clients must not leak or
    strand RECVs.

    An RNR drop discards the server's response SEND *without* consuming
    the client's posted RECV, so the retry path re-WRITEs the request
    while the original RECV is still outstanding — the redelivered
    response must land in a rotation-allocated slot and the
    posted-RECV-per-pending-op invariant must survive arbitrarily many
    bursts (a single-window version of this shipped with the RNR rule;
    the multi-burst variant catches state that only corrupts when the
    window *re-opens* after recovery).
    """
    cluster = HerdCluster(
        HerdConfig(n_server_processes=2, window=2, retry_timeout_ns=40_000.0),
        n_client_machines=2,
        seed=31,
    )
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=256))
    cluster.preload(range(256), 32)
    plan = FaultPlan(seed=31)
    # three separate exhaustion bursts on each client machine, with
    # recovery gaps between them
    for machine in ("cm0", "cm1"):
        plan.rnr(machine, rate=0.8, start_ns=50_000.0, end_ns=90_000.0)
        plan.rnr(machine, rate=0.8, start_ns=150_000.0, end_ns=190_000.0)
        plan.rnr(machine, rate=0.8, start_ns=250_000.0, end_ns=290_000.0)
    cluster.install_faults(plan)
    result = cluster.run(warmup_ns=0, measure_ns=400_000)
    assert cluster.injector.counts.get("rnr_drop", 0) > 0
    # the cluster still makes progress through the bursts...
    assert result.ops > 200
    assert sum(c.failures for c in cluster.clients) == 0
    for client in cluster.clients:
        # ...the op accounting identity holds...
        assert client.completed + client.outstanding + client.abandoned == client.issued
        # ...and no RECV was leaked or stranded by any burst
        for s in range(cluster.config.n_server_processes):
            assert len(client._recv_order[s]) == len(client._pending[s]) + len(
                client._quarantined[s]
            )


# ---------------------------------------------------------------------------
# Overlapping fault windows
# ---------------------------------------------------------------------------


def test_overlapping_crash_windows_recover_at_the_union_end():
    # Regression: two overlapping crash windows on the same server used
    # to revive it when the *first* window's recovery fired, shrinking
    # the outage to whichever window ended earliest.  The injector now
    # holds the server down until the union of all windows has passed.
    cluster = HerdCluster(
        HerdConfig(n_server_processes=2, retry_timeout_ns=40_000.0),
        n_client_machines=1,
        seed=3,
    )
    cluster.add_clients(2, Workload(get_fraction=0.5, value_size=32, n_keys=64))
    cluster.wire()
    cluster.preload(range(64), 32)
    plan = (
        FaultPlan(seed=3)
        .crash_server(0, at_ns=40_000.0, down_ns=100_000.0)   # [40k, 140k)
        .crash_server(0, at_ns=80_000.0, down_ns=100_000.0)   # [80k, 180k)
    )
    cluster.install_faults(plan)
    for client in cluster.clients:
        client.start()
    for server in cluster.servers:
        server.start()
    server = cluster.servers[0]
    sim = cluster.sim
    sim.run(until=150_000.0)
    # past the first window's end, still inside the second: the first
    # recovery event must have been suppressed
    assert not server.alive
    sim.run(until=185_000.0)
    assert server.alive
    # the second crash event found the server already dead, so exactly
    # one crash and one recovery are counted
    assert (server.crashes, server.recoveries) == (1, 1)
    assert cluster.injector.counts.get("server_crash", 0) == 1
    assert cluster.injector.counts.get("server_recovery", 0) == 1
