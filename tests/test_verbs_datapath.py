"""End-to-end tests of the verbs datapath: real bytes over simulated hardware."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.hw import APT, Fabric, Machine
from repro.sim import Simulator
from repro.verbs import (
    Opcode,
    RdmaDevice,
    RecvRequest,
    Transport,
    VerbError,
    WorkRequest,
    connect_pair,
)


def make_world(n_clients=1, profile=APT):
    sim = Simulator()
    fabric = Fabric(sim, profile)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    clients = [RdmaDevice(Machine(sim, fabric, "c%d" % i)) for i in range(n_clients)]
    return sim, fabric, server, clients


# ---------------------------------------------------------------------------
# WRITE
# ---------------------------------------------------------------------------


def test_write_moves_real_bytes():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    wr = WorkRequest.write(
        raddr=mr.addr + 100, rkey=mr.rkey, payload=b"herd!", inline=True, signaled=False
    )
    client.post_send(cqp, wr)
    sim.run_until_idle()
    assert mr.read(100, 5) == b"herd!"
    assert server.writes_received == 1


def test_unsignaled_write_generates_no_completion():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(
        cqp,
        WorkRequest.write(raddr=mr.addr, rkey=mr.rkey, payload=b"x", inline=True, signaled=False),
    )
    sim.run_until_idle()
    assert len(cqp.send_cq) == 0


def test_signaled_uc_write_completes_locally():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(
        cqp,
        WorkRequest.write(
            raddr=mr.addr, rkey=mr.rkey, payload=b"x", inline=True, signaled=True, wr_id=7
        ),
    )
    sim.run_until_idle()
    cqes = cqp.send_cq.poll()
    assert [c.wr_id for c in cqes] == [7]
    assert cqes[0].opcode is Opcode.WRITE


def test_signaled_rc_write_completes_only_after_ack():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    client.post_send(
        cqp,
        WorkRequest.write(raddr=mr.addr, rkey=mr.rkey, payload=b"x", inline=True, signaled=True),
    )
    # Before a full round trip the completion cannot exist.
    sim.run(until=APT.wire_delay_ns * 1.5)
    assert len(cqp.send_cq) == 0
    sim.run_until_idle()
    assert len(cqp.send_cq) == 1
    assert server.acks_received == 0 and client.acks_received == 1


def test_non_inline_write_snapshots_at_dma_fetch_time():
    """Zero-copy semantics: the NIC reads host memory when it fetches the
    payload, not when the verb is posted."""
    sim, fabric, server, (client,) = make_world()
    dst = server.register_memory(4096)
    src = client.register_memory(4096)
    src.write(0, b"AAAA")
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(
        cqp,
        WorkRequest.write(raddr=dst.addr, rkey=dst.rkey, local=(src, 0, 4), signaled=False),
    )
    # Scribble over the source immediately; the DMA fetch happens later,
    # so the scribbled bytes are what travels.
    src.write(0, b"BBBB")
    sim.run_until_idle()
    assert dst.read(0, 4) == b"BBBB"


def test_inline_write_snapshots_at_post_time():
    sim, fabric, server, (client,) = make_world()
    dst = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    payload = bytearray(b"CCCC")
    client.post_send(
        cqp,
        WorkRequest.write(
            raddr=dst.addr, rkey=dst.rkey, payload=bytes(payload), inline=True, signaled=False
        ),
    )
    payload[:] = b"DDDD"
    sim.run_until_idle()
    assert dst.read(0, 4) == b"CCCC"


def test_inline_limited_to_256_bytes():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    with pytest.raises(VerbError):
        client.post_send(
            cqp,
            WorkRequest.write(raddr=mr.addr, rkey=mr.rkey, payload=b"z" * 257, inline=True),
        )


def test_write_on_ud_rejected_per_table1():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    qp = client.create_qp(Transport.UD)
    with pytest.raises(VerbError):
        client.post_send(
            qp, WorkRequest.write(raddr=mr.addr, rkey=mr.rkey, payload=b"x", inline=True)
        )


def test_write_notify_hook_fires_after_dma():
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    seen = []
    mr.on_write = lambda offset, length: seen.append((offset, length, sim.now))
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(
        cqp,
        WorkRequest.write(raddr=mr.addr + 64, rkey=mr.rkey, payload=b"abcd", inline=True, signaled=False),
    )
    sim.run_until_idle()
    assert len(seen) == 1
    assert seen[0][:2] == (64, 4)
    assert seen[0][2] > APT.wire_delay_ns  # after flight + DMA


# ---------------------------------------------------------------------------
# READ
# ---------------------------------------------------------------------------


def test_read_fetches_remote_bytes():
    sim, fabric, server, (client,) = make_world()
    remote = server.register_memory(4096)
    remote.write(200, b"value-bytes")
    sink = client.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    client.post_send(
        cqp,
        WorkRequest.read(raddr=remote.addr + 200, rkey=remote.rkey, local=(sink, 0, 11), wr_id=3),
    )
    sim.run_until_idle()
    assert sink.read(0, 11) == b"value-bytes"
    cqes = cqp.send_cq.poll()
    assert [c.wr_id for c in cqes] == [3]
    assert cqes[0].opcode is Opcode.READ
    assert server.reads_served == 1


def test_wqe_ordering_survives_dma_fetch_delays():
    """RDMA guarantee: a QP's WQEs execute in post order.  A non-inlined
    WRITE (delayed by its payload DMA fetch) must not be overtaken by a
    later inlined WRITE on the same QP — this exact reordering once let
    HERD clients mismatch responses (found by fuzzing)."""
    sim, fabric, server, (client,) = make_world()
    mr = server.register_memory(4096)
    src = client.register_memory(4096)
    src.write(0, b"A" * 300)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    arrival_order = []
    mr.on_write = lambda offset, length: arrival_order.append(offset)
    # First a big non-inlined WRITE, then a small inlined one.
    client.post_send(
        cqp,
        WorkRequest.write(raddr=mr.addr + 0, rkey=mr.rkey, local=(src, 0, 300), signaled=False),
    )
    client.post_send(
        cqp,
        WorkRequest.write(raddr=mr.addr + 2048, rkey=mr.rkey, payload=b"b", inline=True, signaled=False),
    )
    sim.run_until_idle()
    assert arrival_order == [0, 2048]


def test_large_read_response_pays_per_mtu_headers():
    """Messages above one MTU are segmented: the wire carries one
    header per segment (priced, not split into packet objects)."""
    sim, fabric, server, (client,) = make_world()
    length = APT.mtu + 100  # two segments
    remote = server.register_memory(8192)
    sink = client.register_memory(8192)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    client.post_send(
        cqp,
        WorkRequest.read(raddr=remote.addr, rkey=remote.rkey, local=(sink, 0, length)),
    )
    sim.run_until_idle()
    # server->client: the response payload plus 2 wire headers (+ACKless RC read)
    expected_response = length + 2 * APT.wire_bytes(0)
    assert server.machine.port.tx_bytes == expected_response


def test_read_on_uc_rejected_per_table1():
    sim, fabric, server, (client,) = make_world()
    remote = server.register_memory(4096)
    sink = client.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    with pytest.raises(VerbError):
        client.post_send(
            cqp, WorkRequest.read(raddr=remote.addr, rkey=remote.rkey, local=(sink, 0, 8))
        )


def test_outstanding_reads_limited_to_16():
    """The 17th READ waits for a credit (Section 3.2.2)."""
    sim, fabric, server, (client,) = make_world()
    remote = server.register_memory(4096)
    sink = client.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    n = APT.max_outstanding_reads + 4
    for i in range(n):
        client.post_send(
            cqp,
            WorkRequest.read(raddr=remote.addr, rkey=remote.rkey, local=(sink, 0, 8), wr_id=i),
        )
    assert len(cqp.pending_reads) == 4
    sim.run_until_idle()
    # All eventually complete.
    assert len(cqp.send_cq) == n
    assert cqp.pending_reads == type(cqp.pending_reads)()


def test_read_latency_close_to_write_latency():
    """Figure 2b: READ and (non-inlined) WRITE latencies are similar;
    inlining makes WRITE noticeably faster."""
    def measure(make_wr, transport):
        sim, fabric, server, (client,) = make_world()
        remote = server.register_memory(4096)
        sink = client.register_memory(4096)
        src = client.register_memory(4096)
        _sqp, cqp = connect_pair(server, client, transport)
        done = {}
        client.post_send(cqp, make_wr(remote, sink, src))
        def waiter():
            yield cqp.send_cq.pop()
            done["t"] = sim.now
        sim.process(waiter())
        sim.run_until_idle()
        return done["t"]

    read_lat = measure(
        lambda r, s, src: WorkRequest.read(raddr=r.addr, rkey=r.rkey, local=(s, 0, 32)),
        Transport.RC,
    )
    write_lat = measure(
        lambda r, s, src: WorkRequest.write(raddr=r.addr, rkey=r.rkey, local=(src, 0, 32)),
        Transport.RC,
    )
    write_inline_lat = measure(
        lambda r, s, src: WorkRequest.write(raddr=r.addr, rkey=r.rkey, payload=b"i" * 32, inline=True),
        Transport.RC,
    )
    assert write_inline_lat < write_lat
    assert abs(read_lat - write_lat) / read_lat < 0.35
    # All small-verb latencies are in the 1-3 microsecond regime.
    for lat in (read_lat, write_lat, write_inline_lat):
        assert 1_000 < lat < 3_000


# ---------------------------------------------------------------------------
# SEND / RECV
# ---------------------------------------------------------------------------


def post_recv_buffer(dev, qp, size=1024, wr_id=0):
    mr = dev.register_memory(size)
    dev.post_recv(qp, RecvRequest(wr_id=wr_id, local=(mr, 0, size)))
    return mr


def test_send_requires_preposted_recv():
    """Channel semantics: a SEND with no RECV is dropped and counted."""
    sim, fabric, server, (client,) = make_world()
    sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(cqp, WorkRequest.send(payload=b"hello", inline=True, signaled=False))
    sim.run_until_idle()
    assert sqp.rnr_drops == 1
    assert server.sends_received == 0


def test_send_recv_roundtrip_uc():
    sim, fabric, server, (client,) = make_world()
    sqp, cqp = connect_pair(server, client, Transport.UC)
    mr = post_recv_buffer(server, sqp, wr_id=9)
    client.post_send(cqp, WorkRequest.send(payload=b"hello", inline=True, signaled=False))
    sim.run_until_idle()
    assert mr.read(0, 5) == b"hello"  # no GRH on connected transports
    cqes = sqp.recv_cq.poll()
    assert len(cqes) == 1
    assert cqes[0].wr_id == 9
    assert cqes[0].byte_len == 5
    assert cqes[0].src == ("c0", cqp.qpn)


def test_ud_send_lands_after_grh():
    """UD receive buffers start with a 40-byte GRH (Section 4.3 layout)."""
    sim, fabric, server, (client,) = make_world()
    sqp = server.create_qp(Transport.UD)
    cqp = client.create_qp(Transport.UD)
    mr = post_recv_buffer(server, sqp)
    client.post_send(
        cqp,
        WorkRequest.send(
            payload=b"resp", inline=True, signaled=False, ah=("server", sqp.qpn)
        ),
    )
    sim.run_until_idle()
    assert mr.read(APT.grh_bytes, 4) == b"resp"
    assert mr.read(0, 4) == b"\x00" * 4


def test_ud_send_requires_address_handle():
    sim, fabric, server, (client,) = make_world()
    cqp = client.create_qp(Transport.UD)
    client.post_send(cqp, WorkRequest.send(payload=b"x", inline=True))
    with pytest.raises(VerbError):
        sim.run_until_idle()


def test_one_ud_qp_reaches_many_remotes():
    """UD is unconnected: one QP addresses any number of peers."""
    sim, fabric, server, clients = make_world(n_clients=3)
    server_qp = server.create_qp(Transport.UD)
    mrs = []
    client_qps = []
    for c in clients:
        qp = c.create_qp(Transport.UD)
        mrs.append(post_recv_buffer(c, qp))
        client_qps.append(qp)
    for i, qp in enumerate(client_qps):
        server.post_send(
            server_qp,
            WorkRequest.send(
                payload=b"to-%d" % i, inline=True, signaled=False, ah=(clients[i].machine.name, qp.qpn)
            ),
        )
    sim.run_until_idle()
    for i, mr in enumerate(mrs):
        assert mr.read(APT.grh_bytes, 4) == b"to-%d" % i


def test_recv_buffer_too_small_raises():
    sim, fabric, server, (client,) = make_world()
    sqp, cqp = connect_pair(server, client, Transport.UC)
    mr = server.register_memory(4)
    server.post_recv(sqp, RecvRequest(wr_id=0, local=(mr, 0, 4)))
    client.post_send(cqp, WorkRequest.send(payload=b"too big", inline=True, signaled=False))
    with pytest.raises(VerbError):
        sim.run_until_idle()


def test_ud_message_limited_to_mtu():
    sim, fabric, server, (client,) = make_world()
    cqp = client.create_qp(Transport.UD)
    big = client.register_memory(APT.mtu + 1)
    with pytest.raises(VerbError):
        client.post_send(
            cqp,
            WorkRequest.send(local=(big, 0, APT.mtu + 1), ah=("server", 1)),
        )


# ---------------------------------------------------------------------------
# Wiring / validation
# ---------------------------------------------------------------------------


def test_connect_pair_rejects_ud():
    sim, fabric, server, (client,) = make_world()
    with pytest.raises(VerbError):
        connect_pair(server, client, Transport.UD)


def test_qp_cannot_connect_twice():
    sim, fabric, server, (client,) = make_world()
    sqp, cqp = connect_pair(server, client, Transport.UC)
    with pytest.raises(VerbError):
        cqp.connect("server", sqp.qpn)


def test_unconnected_qp_cannot_send():
    sim, fabric, server, (client,) = make_world()
    qp = client.create_qp(Transport.UC)
    with pytest.raises(VerbError):
        client.post_send(qp, WorkRequest.send(payload=b"x", inline=True))


def test_recv_opcode_rejected_on_send_queue():
    sim, fabric, server, (client,) = make_world()
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    wr = WorkRequest(Opcode.RECV)
    with pytest.raises(VerbError):
        client.post_send(cqp, wr)


def test_ah_on_connected_transport_rejected():
    sim, fabric, server, (client,) = make_world()
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(
        cqp, WorkRequest.send(payload=b"x", inline=True, ah=("server", 1))
    )
    with pytest.raises(VerbError):
        sim.run_until_idle()


# ---------------------------------------------------------------------------
# Reliability / fault injection
# ---------------------------------------------------------------------------


def test_rc_retransmits_through_bit_errors():
    sim, fabric, server, (client,) = make_world()
    FaultPlan(seed=1).uniform_loss(0.5).install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    client.post_send(
        cqp,
        WorkRequest.write(raddr=mr.addr, rkey=mr.rkey, payload=b"durable", inline=True, signaled=False),
    )
    sim.run_until_idle(limit=50_000_000)
    assert mr.read(0, 7) == b"durable"
    assert client.retransmits >= 1  # the first copy was lost


def test_uc_loss_is_silent():
    """UC sacrifices transport-level retransmission (Section 2.2.3)."""
    sim, fabric, server, (client,) = make_world()
    FaultPlan(seed=1).uniform_loss(1.0).install(fabric)
    mr = server.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.UC)
    client.post_send(
        cqp,
        WorkRequest.write(raddr=mr.addr, rkey=mr.rkey, payload=b"gone", inline=True, signaled=False),
    )
    sim.run_until_idle(limit=50_000_000)
    assert mr.read(0, 4) == b"\x00" * 4
    assert server.writes_received == 0


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=256))
def test_any_payload_roundtrips_by_write_then_read(payload):
    sim, fabric, server, (client,) = make_world()
    remote = server.register_memory(4096)
    sink = client.register_memory(4096)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    client.post_send(
        cqp,
        WorkRequest.write(
            raddr=remote.addr, rkey=remote.rkey, payload=payload,
            inline=len(payload) <= 256, signaled=False,
        ),
    )
    sim.run_until_idle()
    client.post_send(
        cqp,
        WorkRequest.read(raddr=remote.addr, rkey=remote.rkey, local=(sink, 0, len(payload))),
    )
    sim.run_until_idle()
    assert sink.read(0, len(payload)) == payload
