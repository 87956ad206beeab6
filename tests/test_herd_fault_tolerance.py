"""Failure injection: HERD's unreliable transports under packet loss.

Section 2.2.3: IB/RoCE are lossless in normal operation (credit-based
flow control); loss comes only from bit errors and hardware failures.
HERD therefore "sacrifices transport-level retransmission for fast
common case performance at the cost of rare application-level retries".
These tests inject bit errors and exercise that recovery path.
"""

import pytest

from repro.faults import FaultPlan
from repro.herd import HerdCluster, HerdConfig
from repro.workloads import Workload


def lossy_cluster(retry_timeout_ns, loss_rate, toward_server_only=True):
    cluster = HerdCluster(
        HerdConfig(n_server_processes=2, window=2, retry_timeout_ns=retry_timeout_ns),
        n_client_machines=2,
        seed=11,
    )
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=256))
    cluster.preload(range(256), 32)

    plan = FaultPlan(seed=11)
    if toward_server_only:
        plan.drop(dst="server", rate=loss_rate)
    else:
        plan.uniform_loss(loss_rate)
    cluster.install_faults(plan)
    return cluster


def test_lossless_run_never_retries():
    cluster = lossy_cluster(retry_timeout_ns=50_000.0, loss_rate=0.0)
    result = cluster.run(warmup_ns=0, measure_ns=150_000)
    assert result.ops > 100
    assert sum(c.retries for c in cluster.clients) == 0


def test_without_retries_lost_requests_stall_the_window():
    """UC drops are silent: with no application-level retry, every lost
    request permanently occupies a window slot."""
    cluster = lossy_cluster(retry_timeout_ns=None, loss_rate=0.05)
    result = cluster.run(warmup_ns=0, measure_ns=400_000)
    # 4 clients x window 2 = 8 slots; each has ~5% loss per op, so the
    # run grinds to a halt long before the horizon.
    stalled = [c for c in cluster.clients if c.outstanding == cluster.config.window]
    assert stalled, "expected at least one fully stalled client window"


def test_retries_recover_lost_requests():
    cluster = lossy_cluster(retry_timeout_ns=40_000.0, loss_rate=0.05)
    result = cluster.run(warmup_ns=0, measure_ns=600_000)
    retries = sum(c.retries for c in cluster.clients)
    assert retries > 0
    assert cluster.fabric.dropped > 0
    # Clients keep making progress through the loss.
    assert result.ops > 300
    assert sum(c.failures for c in cluster.clients) == 0


def test_retries_recover_lost_responses_too():
    """Responses (UD SENDs) can also be dropped; re-writing the request
    makes the server re-execute and respond again."""
    cluster = HerdCluster(
        HerdConfig(n_server_processes=2, window=2, retry_timeout_ns=40_000.0),
        n_client_machines=2,
        seed=13,
    )
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=256))
    cluster.preload(range(256), 32)
    cluster.install_faults(FaultPlan(seed=13).drop(src="server", rate=0.05))
    result = cluster.run(warmup_ns=0, measure_ns=600_000)
    assert sum(c.retries for c in cluster.clients) > 0
    assert result.ops > 300


def test_stored_data_survives_loss_and_retries():
    """PUT retries are idempotent: the store ends up correct."""
    from repro.herd.config import partition_of
    from repro.workloads.ycsb import keyhash, value_for

    cluster = lossy_cluster(retry_timeout_ns=40_000.0, loss_rate=0.03)
    cluster.run(warmup_ns=0, measure_ns=600_000)
    checked = 0
    for item in range(256):
        kh = keyhash(item)
        server = cluster.servers[partition_of(kh, len(cluster.servers))]
        value = server.store.get(kh)
        if value is not None:
            assert value == value_for(item, 32)
            checked += 1
    assert checked > 200
