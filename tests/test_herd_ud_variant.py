"""Tests for the SEND/SEND HERD variant (Section 5.5)."""

import pytest

from repro.herd import HerdConfig, ud_variant
from repro.herd.ud_variant import (
    SendSendHerdCluster,
    decode_ud_request,
    encode_ud_request,
)
from repro.verbs import Transport
from repro.workloads import OpType, Workload
from repro.workloads.ycsb import Operation, keyhash, value_for

pytestmark = pytest.mark.usefixtures("staging_checked")


def small_cluster(ns=2, clients=4, get_fraction=0.5, value_size=32, n_keys=256):
    cluster = SendSendHerdCluster(
        HerdConfig(n_server_processes=ns, window=2), n_client_machines=2, seed=5
    )
    cluster.add_clients(
        clients, Workload(get_fraction=get_fraction, value_size=value_size, n_keys=n_keys)
    )
    cluster.preload(range(n_keys), value_size)
    return cluster


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_ud_request_roundtrip_get():
    op = Operation(OpType.GET, keyhash(7), None)
    decoded, qpn = decode_ud_request(encode_ud_request(op, reply_qpn=42))
    assert decoded.op is OpType.GET
    assert decoded.key == keyhash(7)
    assert qpn == 42


def test_ud_request_roundtrip_put():
    op = Operation(OpType.PUT, keyhash(9), b"value-bytes")
    decoded, qpn = decode_ud_request(encode_ud_request(op, reply_qpn=3))
    assert decoded.op is OpType.PUT
    assert decoded.value == b"value-bytes"
    assert qpn == 3


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
    from repro.herd.config import partition_of
    from repro.workloads.ycsb import value_for

    cluster = small_cluster(get_fraction=0.0, value_size=24, n_keys=32)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 50
    for item in range(32):
        kh = keyhash(item)
        server = cluster.servers[partition_of(kh, len(cluster.servers))]
        assert server.store.get(kh) == value_for(item, 24)


@pytest.mark.parametrize("value_size", [1010, 1024])
def test_values_up_to_1_kib_travel_intact(value_size, monkeypatch):
    """A request is 22 B of header plus the value.  Requests used to be
    staged at ``slot * 1024``: above 1 002 B neighbouring slots
    overlapped, and at 1 010 B the last slot ran off the MR
    (``MrAccessError``).  Through the staging ring every size up to the
    1 KiB value limit goes out intact."""
    seen = []

    def spy(op_type, payload):
        success, value = decode(op_type, payload)
        if op_type is OpType.GET and success:
            seen.append(value)
        return success, value

    decode = ud_variant.decode_response
    monkeypatch.setattr(ud_variant, "decode_response", spy)
    n_keys = 256
    cluster = SendSendHerdCluster(
        HerdConfig(n_server_processes=2, window=2), n_client_machines=4, seed=5
    )
    cluster.add_clients(
        64, Workload(get_fraction=0.5, value_size=value_size, n_keys=n_keys)
    )
    cluster.preload(range(n_keys), value_size)
    result = cluster.run(warmup_ns=0, measure_ns=60_000)
    assert result.ops > 100
    assert sum(c.failures for c in cluster.clients) == 0
    assert result.extra["get_misses"] == 0
    values = {value_for(item, value_size) for item in range(n_keys)}
    assert seen and all(value in values for value in seen)


def test_recv_rings_never_underflow():
    """The server's deep pre-posted RECV ring plus per-request client
    RECVs mean no SEND is ever dropped."""
    cluster = small_cluster()
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.extra["rnr_drops"] == 0
    for client in cluster.clients:
        assert client.qp.rnr_drops == 0


def test_server_uses_only_ns_ud_qps():
    """The entire client population shares NS unconnected QPs."""
    cluster = small_cluster(ns=3, clients=8)
    uc = [q for q in cluster.server_device.qps.values() if q.transport is Transport.UC]
    ud = [q for q in cluster.server_device.qps.values() if q.transport is Transport.UD]
    assert uc == []
    assert len(ud) == 3


@pytest.mark.slow
def test_send_send_costs_a_few_mops_but_scales():
    """Section 5.5: switching to SEND/SEND costs ~4-5 Mops at moderate
    scale but keeps peak throughput at client counts where the
    WRITE-based design has already declined."""
    from repro.bench.figures import run_herd

    def ss_run(n, machines):
        cluster = SendSendHerdCluster(
            HerdConfig(n_server_processes=6), n_client_machines=machines
        )
        cluster.add_clients(
            n, Workload(get_fraction=0.95, value_size=32, n_keys=1 << 12)
        )
        cluster.preload(range(1 << 12), 32)
        return cluster.run(measure_ns=120_000.0).mops

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
