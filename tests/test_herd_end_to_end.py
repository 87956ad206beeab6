"""End-to-end HERD tests: real requests, real bytes, real responses."""

import pytest

from repro.herd import HerdCluster, HerdConfig
from repro.workloads import Workload
from repro.workloads.ycsb import value_for


def small_cluster(ns=2, window=2, clients=4, get_fraction=0.5, value_size=32,
                  n_keys=256, **cfg_kwargs):
    cluster = HerdCluster(
        HerdConfig(n_server_processes=ns, window=window, **cfg_kwargs),
        n_client_machines=2,
        seed=7,
    )
    cluster.add_clients(
        clients,
        Workload(
            get_fraction=get_fraction, value_size=value_size, n_keys=n_keys
        ),
    )
    cluster.preload(range(n_keys), value_size)
    return cluster


def test_progress_and_no_failures():
    cluster = small_cluster()
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 100
    assert sum(c.failures for c in cluster.clients) == 0


def test_preloaded_gets_all_hit():
    """Values are deterministic per key, so every GET must hit after
    preloading the whole keyspace."""
    cluster = small_cluster(get_fraction=1.0)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 100
    assert result.extra["get_misses"] == 0


def test_every_get_response_succeeds_after_preload():
    """Every GET response decodes as a hit when the keyspace is warm."""
    checked = []
    cluster = small_cluster(get_fraction=1.0, value_size=48)
    cluster.wire()

    def capture(op, latency, success, now):
        assert success
        checked.append(op.item)

    for client in cluster.clients:
        client.response_hook = capture
        client.start()
    for server in cluster.servers:
        server.start()
    cluster.sim.run(until=100_000)
    assert len(checked) > 50


def test_stored_values_match_value_function():
    """Data-path integrity: after a run, the bytes in the server's MICA
    partitions equal the deterministic value function for every key."""
    from repro.herd.config import partition_of
    from repro.workloads.ycsb import keyhash

    cluster = small_cluster(get_fraction=0.5, value_size=40, n_keys=64)
    result = cluster.run(warmup_ns=0, measure_ns=80_000)
    assert result.ops > 20
    for item in range(64):
        kh = keyhash(item)
        server = cluster.servers[partition_of(kh, cluster.config.n_server_processes)]
        assert server.store.get(kh) == value_for(item, 40)


def test_puts_update_server_store():
    cluster = small_cluster(get_fraction=0.0, value_size=16, n_keys=32)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 50
    puts = sum(s.puts for s in cluster.servers)
    assert puts > 50
    assert sum(c.failures for c in cluster.clients) == 0


def test_single_client_does_not_deadlock():
    """With one client and a deep window, the pipeline would hold the
    last requests forever without the no-op rule (Section 4.1.1)."""
    cluster = small_cluster(ns=1, window=2, clients=1)
    result = cluster.run(warmup_ns=0, measure_ns=50_000)
    assert result.ops > 10
    assert cluster.servers[0].noops_pushed > 0


def test_window_limits_outstanding_requests():
    cluster = small_cluster(window=3)
    cluster.wire()
    for client in cluster.clients:
        client.start()
    for server in cluster.servers:
        server.start()
    cluster.sim.run(until=50_000)
    for client in cluster.clients:
        assert client.outstanding <= 3


def test_requests_and_responses_balance():
    cluster = small_cluster()
    cluster.run(warmup_ns=0, measure_ns=100_000)
    issued = sum(c.issued for c in cluster.clients)
    completed = sum(c.completed for c in cluster.clients)
    outstanding = sum(c.outstanding for c in cluster.clients)
    assert issued == completed + outstanding


def test_responses_use_unsignaled_ud_sends():
    """HERD responses are unsignaled SENDs over UD: the server's send
    CQs must stay empty."""
    cluster = small_cluster()
    cluster.run(warmup_ns=0, measure_ns=50_000)
    for server in cluster.servers:
        assert len(server.ud_qp.send_cq) == 0
        assert server.ud_qp.send_cq.pushed == 0


def test_no_recv_is_ever_missing():
    """Clients pre-post a RECV before each request, so no response can
    arrive without a buffer (rnr_drops == 0)."""
    cluster = small_cluster()
    cluster.run(warmup_ns=0, measure_ns=100_000)
    for client in cluster.clients:
        for qp in client.ud_qps:
            assert qp.rnr_drops == 0


@pytest.mark.parametrize("value_size", [32, 1000])
def test_recv_mirror_holds_exactly_the_posted_recvs(value_size):
    """Without retries too, every client lane's posting-order mirror
    holds one offset per RECV still posted on it: each response pops
    the mirror's oldest entry, as the NIC consumes the oldest RECV."""
    cluster = small_cluster(value_size=value_size)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 100
    for client in cluster.clients:
        for lane, qp in enumerate(client.ud_qps):
            assert len(client._recv_order[lane]) == len(qp.recv_queue)


def test_server_connected_qp_count_is_nc_not_nc_times_ns():
    """Section 4.2: HERD needs only NC connected QPs at the server."""
    cluster = small_cluster(ns=3, clients=5)
    cluster.wire()
    from repro.verbs import Transport

    server_uc = [
        qp for qp in cluster.server_device.qps.values()
        if qp.transport is Transport.UC
    ]
    server_ud = [
        qp for qp in cluster.server_device.qps.values()
        if qp.transport is Transport.UD
    ]
    assert len(server_uc) == 5          # one per client process
    assert len(server_ud) == 3          # one per server process


def test_large_values_switch_to_non_inlined_responses():
    """Values above the inline cutoff must still arrive intact."""
    cluster = small_cluster(get_fraction=1.0, value_size=300, n_keys=64)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 20
    assert result.extra["get_misses"] == 0
    assert sum(c.failures for c in cluster.clients) == 0


def test_big_put_values_roundtrip():
    """PUT requests above max_inline go out as non-inlined WRITEs."""
    cluster = small_cluster(get_fraction=0.0, value_size=600, n_keys=16)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 20
    assert sum(c.failures for c in cluster.clients) == 0


def test_throughput_in_expected_band():
    """A 6-core HERD server delivers ~25 Mops for small items (the
    paper's 26 Mops); accept a generous band."""
    cluster = HerdCluster(HerdConfig(n_server_processes=6), seed=3)
    cluster.add_clients(51, Workload(get_fraction=0.95, value_size=32, n_keys=1 << 12))
    cluster.preload(range(1 << 12), 32)
    result = cluster.run(warmup_ns=50_000, measure_ns=150_000)
    assert 20.0 < result.mops < 30.0


def test_latency_at_low_load_is_microseconds():
    cluster = small_cluster(ns=2, clients=2, window=1)
    result = cluster.run(warmup_ns=10_000, measure_ns=100_000)
    assert 1.5 < result.latency["mean_us"] < 6.0
