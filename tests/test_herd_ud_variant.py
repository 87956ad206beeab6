"""Tests for HERD's SEND/SEND requests (Section 5.5):
``HerdConfig(request_transport="UD")``."""

import pytest

from repro.herd import HerdCluster, HerdConfig
from repro.herd.config import partition_of
from repro.herd.wire import (
    FRAME_EPOCH,
    FRAME_PLAIN,
    MAX_SEND_REQUEST,
    ROUTE_BYTES,
    decode_request,
    encode_get,
    encode_put,
    request_route,
    route_request,
)
from repro.verbs import Transport
from repro.workloads import OpType, Workload
from repro.workloads.ycsb import keyhash, value_for

pytestmark = pytest.mark.usefixtures("staging_checked")


def small_cluster(ns=2, clients=4, get_fraction=0.5, value_size=32, n_keys=256):
    cluster = HerdCluster(
        HerdConfig(n_server_processes=ns, window=2, request_transport="UD"),
        n_client_machines=2,
        seed=5,
    )
    cluster.add_clients(
        clients, Workload(get_fraction=get_fraction, value_size=value_size, n_keys=n_keys)
    )
    cluster.preload(range(n_keys), value_size)
    return cluster


def rnr_drops(cluster):
    """SENDs dropped for want of a posted RECV, at the server and the
    clients."""
    return sum(s.ud_qp.rnr_drops for s in cluster.servers) + sum(
        qp.rnr_drops for c in cluster.clients for qp in c.ud_qps
    )


# ---------------------------------------------------------------------------
# wire format: a WRITE request's bytes behind a routing prefix
# ---------------------------------------------------------------------------


def test_ud_request_roundtrip_get():
    for framing in (FRAME_PLAIN, FRAME_EPOCH):
        request = route_request(41, 3, encode_get(keyhash(7), framing, 9))
        assert request_route(request) == (41, 3)
        op, epoch = decode_request(request, framing, start=ROUTE_BYTES)
        assert op.op is OpType.GET
        assert op.key == keyhash(7)
        assert epoch == (9 if framing else 0)


def test_ud_request_roundtrip_put():
    value = bytes(range(256)) * 4
    for framing in (FRAME_PLAIN, FRAME_EPOCH):
        request = route_request(2, 0, encode_put(keyhash(9), value, framing, 5))
        assert len(request) == MAX_SEND_REQUEST - (0 if framing else 1)
        # the RECV buffer holds other bytes past the request's end
        buf = b"\xa5" * 40 + request + b"\xa5" * 64
        assert request_route(buf, 40) == (2, 0)
        op, epoch = decode_request(buf, framing, 40 + ROUTE_BYTES, 40 + len(request))
        assert op.op is OpType.PUT
        assert op.value == value
        assert epoch == (5 if framing else 0)


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def test_progress_and_correctness():
    cluster = small_cluster(get_fraction=1.0)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 100
    assert result.extra["get_misses"] == 0
    assert sum(c.failures for c in cluster.clients) == 0


def test_puts_reach_the_store():
    cluster = small_cluster(get_fraction=0.0, value_size=24, n_keys=32)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 50
    for item in range(32):
        kh = keyhash(item)
        server = cluster.servers[partition_of(kh, len(cluster.servers))]
        assert server.store.get(kh) == value_for(item, 24)


@pytest.mark.parametrize("value_size", [1010, 1024])
def test_values_up_to_1_kib_travel_intact(value_size):
    """A SEND request is not bounded by the 1 KB request slot: with the
    routing prefix, the epoch byte, LEN and the keyhash a 1 KB value
    makes a 1 046 B request.  The client's staging stride fits the
    largest, so neighbouring window slots never overlap and the last
    stays inside its MR (a 1 KB stride overlapped above 1 002 B and ran
    off the MR at 1 010 B)."""
    n_keys = 256
    cluster = HerdCluster(
        HerdConfig(n_server_processes=2, window=2, request_transport="UD"),
        n_client_machines=4,
        seed=5,
    )
    cluster.add_clients(
        64, Workload(get_fraction=0.5, value_size=value_size, n_keys=n_keys)
    )
    cluster.preload(range(n_keys), value_size)
    seen = []

    def spy(op, success, value, now):
        if op.op is OpType.GET and success:
            seen.append(value)

    for client in cluster.clients:
        client.payload_hook = spy
    result = cluster.run(warmup_ns=0, measure_ns=60_000)
    assert result.ops > 100
    assert sum(c.failures for c in cluster.clients) == 0
    assert result.extra["get_misses"] == 0
    assert rnr_drops(cluster) == 0
    values = {value_for(item, value_size) for item in range(n_keys)}
    assert seen and all(value in values for value in seen)
    for server in cluster.servers:
        assert server.puts > 0


def test_recv_rings_never_underflow():
    """Each server process's RECV ring holds one buffer per request the
    clients can have outstanding at it, and each client posts a RECV
    per request: no SEND is ever dropped."""
    cluster = small_cluster()
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 100
    assert rnr_drops(cluster) == 0


def test_server_uses_only_ns_ud_qps():
    """The entire client population shares NS unconnected QPs, the ones
    the server processes answer on."""
    cluster = small_cluster(ns=3, clients=8)
    cluster.wire()
    uc = [q for q in cluster.server_device.qps.values() if q.transport is Transport.UC]
    ud = [q for q in cluster.server_device.qps.values() if q.transport is Transport.UD]
    assert uc == []
    assert sorted(ud, key=id) == sorted((s.ud_qp for s in cluster.servers), key=id)
    assert len(ud) == 3
    assert cluster.region is None


@pytest.mark.slow
def test_send_send_costs_a_few_mops_but_scales():
    """Section 5.5: switching to SEND/SEND costs ~4-5 Mops at moderate
    scale but keeps peak throughput at client counts where the
    WRITE-based design has already declined."""
    from repro.bench.figures import run_herd

    def ss_run(n, machines):
        cluster = HerdCluster(
            HerdConfig(n_server_processes=6, request_transport="UD"),
            n_client_machines=machines,
        )
        cluster.add_clients(
            n, Workload(get_fraction=0.95, value_size=32, n_keys=1 << 12)
        )
        cluster.preload(range(1 << 12), 32)
        result = cluster.run(measure_ns=120_000.0)
        assert rnr_drops(cluster) == 0
        return result.mops

    hybrid_small = run_herd(n_clients=51, measure_ns=120_000.0).mops
    ss_small = ss_run(51, 17)
    assert 2.0 < hybrid_small - ss_small < 8.0

    hybrid_big = run_herd(
        n_clients=460, n_client_machines=93, measure_ns=120_000.0
    ).mops
    ss_big = ss_run(460, 93)
    assert ss_big > 0.9 * ss_small       # SEND/SEND holds its peak
    assert hybrid_big < 0.7 * hybrid_small  # the hybrid has declined
    assert ss_big > hybrid_big
