"""Server-process crash and recovery via the shared request region."""

import pytest

from repro.faults import FaultPlan
from repro.herd import HerdCluster, HerdConfig
from repro.herd.config import SLOT_BYTES, partition_of
from repro.herd.wire import FRAME_EPOCH, encode_put
from repro.workloads import Workload
from repro.workloads.ycsb import keyhash, value_for

#: crashes park ops and recoveries un-park them: keep the client's
#: running parked count honest throughout
pytestmark = pytest.mark.usefixtures("parked_count_checked")


def crashy_cluster(seed=31, window=2, retry_timeout_ns=40_000.0):
    cluster = HerdCluster(
        HerdConfig(
            n_server_processes=2, window=window, retry_timeout_ns=retry_timeout_ns
        ),
        n_client_machines=2,
        seed=seed,
    )
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=256))
    cluster.preload(range(256), 32)
    return cluster


# ---------------------------------------------------------------------------
# The region scan
# ---------------------------------------------------------------------------


def test_scan_partition_finds_live_slots_only():
    cluster = crashy_cluster()
    region = cluster.region
    assert region.scan_partition(0) == []
    # Plant a request exactly as a client WRITE would leave it.
    payload = encode_put(keyhash(5), b"v" * 8, FRAME_EPOCH, epoch=1)
    offset = region.slot_offset(0, 2, 1) + SLOT_BYTES - len(payload)
    region.mr.write(offset, payload)
    assert region.scan_partition(0) == [(2, 1)]
    assert region.scan_partition(1) == []  # other partition untouched
    region.clear_slot(0, 2, 1)
    assert region.scan_partition(0) == []


# ---------------------------------------------------------------------------
# Crash mechanics
# ---------------------------------------------------------------------------


def test_crash_and_recover_are_idempotent():
    cluster = crashy_cluster()
    server = cluster.servers[0]
    assert server.recover() is False       # alive: nothing to recover
    assert server.crash() is True
    assert server.crash() is False         # already dead
    assert not server.alive
    assert server.recover() is True
    assert server.alive
    assert (server.crashes, server.recoveries) == (1, 1)


def test_crashed_server_stops_responding_until_recovery():
    cluster = crashy_cluster()
    down_start, down_end = 60_000.0, 200_000.0
    cluster.install_faults(
        FaultPlan(seed=31).crash_server(0, at_ns=down_start, down_ns=down_end - down_start)
    )
    stamps = []
    for server in cluster.servers:
        def hook(client_id, op, now, _s=server.index):
            stamps.append((_s, now))

        server.completion_hook = hook
    cluster.run(warmup_ns=0, measure_ns=500_000)
    dead = [
        t for s, t in stamps if s == 0 and down_start + 5_000.0 < t < down_end
    ]
    # A request caught mid-service may complete just after the crash
    # instant, but nothing responds through the heart of the outage.
    assert not dead
    assert any(t > down_end for s, t in stamps if s == 0), "server 0 never resumed"


def test_siblings_absorb_load_during_the_outage():
    cluster = crashy_cluster(window=8)
    cluster.install_faults(
        FaultPlan(seed=31).crash_server(0, at_ns=60_000.0, down_ns=140_000.0)
    )
    stamps = []
    for server in cluster.servers:
        def hook(client_id, op, now, _s=server.index):
            stamps.append((_s, now))

        server.completion_hook = hook
    cluster.run(warmup_ns=0, measure_ns=500_000)
    # Right after the crash, the healthy sibling keeps completing
    # requests: every completion in the outage belongs to server 1.
    during = [s for s, t in stamps if 62_000.0 < t < 200_000.0]
    assert during and all(s == 1 for s in during)
    # The absorption is transient by design: each client's closed-loop
    # window and park budget fill with ops for the dead partition and
    # the client holds off.  After recovery, both partitions serve.
    after = {s for s, t in stamps if t > 220_000.0}
    assert after == {0, 1}


def test_recovery_rescans_the_region_and_completes_stranded_ops():
    cluster = crashy_cluster()
    cluster.install_faults(
        FaultPlan(seed=31).crash_server(0, at_ns=60_000.0, down_ns=100_000.0)
    )
    result = cluster.run(warmup_ns=0, measure_ns=600_000)
    server = cluster.servers[0]
    assert (server.crashes, server.recoveries) == (1, 1)
    # The windows pointed at server 0 were full when it died, and
    # requests kept landing in shared memory during the outage: the
    # re-scan must have found live slots.
    assert server.recovered_slots > 0
    assert result.ops > 300
    assert sum(c.failures for c in cluster.clients) == 0


def test_store_consistent_after_crash_recovery_and_retries():
    """Re-executed PUTs (recovery + client retries) are idempotent."""
    cluster = crashy_cluster(seed=33)
    cluster.install_faults(
        FaultPlan(seed=33)
        .drop(dst="server", rate=0.02)
        .crash_server(1, at_ns=80_000.0, down_ns=80_000.0)
    )
    cluster.run(warmup_ns=0, measure_ns=600_000)
    for item in range(256):
        kh = keyhash(item)
        stored = cluster.servers[partition_of(kh, 2)].store.get(kh)
        assert stored == value_for(item, 32)


def test_without_retries_a_crash_strands_the_window():
    """Recovery re-serves what is in the region, but responses that
    died with the process are only re-asked-for by retrying clients."""
    cluster = crashy_cluster(retry_timeout_ns=None)
    cluster.install_faults(
        FaultPlan(seed=31).crash_server(0, at_ns=60_000.0, down_ns=100_000.0)
    )
    cluster.run(warmup_ns=0, measure_ns=600_000)
    # Progress continued on the healthy partition regardless.
    assert sum(c.completed for c in cluster.clients) > 100


def test_client_parking_keeps_healthy_partitions_busy():
    cluster = crashy_cluster()
    cluster.install_faults(
        FaultPlan(seed=31).crash_server(0, at_ns=60_000.0, down_ns=200_000.0)
    )
    cluster.run(warmup_ns=0, measure_ns=400_000)
    parked = sum(len(q) for c in cluster.clients for q in c._parked)
    limit = 2 * cluster.config.window
    for client in cluster.clients:
        assert sum(len(q) for q in client._parked) <= limit
    # The global closed loop never exceeds W outstanding.
    for client in cluster.clients:
        assert client.outstanding <= cluster.config.window
