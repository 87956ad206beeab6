"""Tests for the full (non-emulated) Pilaf and FaRM systems.

These go beyond the paper: the hash tables live inside registered
memory regions and clients traverse the real bytes with READs.
"""

import pytest

from repro.baselines.farm import FarmFullCluster, FarmFullConfig
from repro.baselines.pilaf import PilafFullCluster, PilafFullConfig
from repro.workloads import Workload
from repro.workloads.ycsb import keyhash, value_for

#: one value size under the 256 B inline limit, two above it (there a
#: PUT is staged and fetched by the NIC instead of copied into the WQE)
VALUE_SIZES = [32, 300, 1000]


def pilaf_full(n_keys=2000, get_fraction=0.95, clients=8, preload=True, **cfg):
    config = PilafFullConfig(**cfg)
    cluster = PilafFullCluster(
        config,
        Workload(get_fraction=get_fraction, value_size=config.value_bytes, n_keys=n_keys),
        n_clients=clients,
        n_client_machines=4,
    )
    if preload:
        cluster.preload(range(n_keys))
    return cluster


def farm_full(n_keys=2000, get_fraction=0.95, clients=8, preload=True, **cfg):
    config = FarmFullConfig(**cfg)
    cluster = FarmFullCluster(
        config,
        Workload(get_fraction=get_fraction, value_size=config.value_bytes, n_keys=n_keys),
        n_clients=clients,
        n_client_machines=4,
    )
    if preload:
        cluster.preload(range(n_keys))
    return cluster


# ---------------------------------------------------------------------------
# Pilaf full
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value_bytes", VALUE_SIZES)
def test_pilaf_full_gets_return_correct_bytes(value_bytes):
    """Every GET hit decodes to the exact stored value, end to end
    through remote bucket parsing and extent checksums — also the
    values the riding-along PUTs (inline or staged) rewrote."""
    cluster = pilaf_full(get_fraction=0.9, value_bytes=value_bytes)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 100
    assert result.extra["get_misses"] == 0
    assert result.extra["wrong_values"] == 0


def test_pilaf_full_probe_count_is_emergent():
    """The client probes exactly as many buckets as the real cuckoo
    placement requires — between 1 and 3, averaging in the paper's
    regime."""
    cluster = pilaf_full(get_fraction=1.0, n_keys=2000)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert 1.0 < result.extra["avg_probes"] < 2.0


def test_pilaf_full_table_lives_in_registered_region():
    cluster = pilaf_full()
    assert cluster.table.table is cluster.table_mr.buf
    assert cluster.table.extents is cluster.extents_mr.buf


@pytest.mark.parametrize("value_bytes", VALUE_SIZES)
def test_pilaf_full_puts_update_the_real_table(value_bytes):
    # an empty table: every item found below was inserted by a PUT
    cluster = pilaf_full(
        get_fraction=0.0, n_keys=64, preload=False, value_bytes=value_bytes
    )
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 30
    assert result.extra["failed_inserts"] == 0
    hits = 0
    for item in range(64):
        value = cluster.table.get(keyhash(item))
        if value is not None:
            assert value == value_for(item, value_bytes)
            hits += 1
    assert hits > 32
    assert cluster.table.items == hits  # and nothing under a foreign key


def test_pilaf_full_throughput_close_to_emulated():
    """The paper's emulation claims to upper-bound the real system; our
    full build lands within ~25% of the emulated numbers (slightly
    above, in fact, because real probe counts at moderate load are
    below the assumed 1.6)."""
    from repro.baselines import PilafCluster, PilafConfig

    full = PilafFullCluster(
        PilafFullConfig(value_bytes=32),
        Workload(get_fraction=1.0, value_size=32, n_keys=4000),
    )
    full.preload(range(4000))
    full_mops = full.run().mops
    emulated = PilafCluster(
        PilafConfig(value_bytes=32), Workload(get_fraction=1.0, value_size=32)
    ).run().mops
    assert abs(full_mops - emulated) / emulated < 0.35


# ---------------------------------------------------------------------------
# FaRM full
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value_bytes", VALUE_SIZES)
def test_farm_full_gets_return_correct_bytes(value_bytes):
    cluster = farm_full(get_fraction=0.9, value_bytes=value_bytes)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 100
    assert result.extra["get_misses"] == 0
    assert result.extra["wrong_values"] == 0


def test_farm_full_table_lives_in_registered_region():
    cluster = farm_full()
    assert cluster.table.table is cluster.table_mr.buf


@pytest.mark.parametrize("value_bytes", VALUE_SIZES)
def test_farm_full_puts_update_the_real_table(value_bytes):
    # an empty table: every item found below was inserted by a PUT
    cluster = farm_full(
        get_fraction=0.0, n_keys=64, preload=False, value_bytes=value_bytes
    )
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 30
    assert result.extra["failed_inserts"] == 0
    found = sum(
        1 for item in range(64)
        if cluster.table.get(keyhash(item)) == value_for(item, value_bytes)
    )
    assert found > 32
    assert cluster.table.items == found  # and nothing under a foreign key


def test_farm_full_wrapped_neighborhoods_need_two_reads():
    """Keys homed near the table's end wrap; the client issues a second
    READ and still decodes correctly (the emulation prices this as one
    read — a documented simplification)."""
    cluster = farm_full(get_fraction=1.0, n_keys=4000)
    result = cluster.run(warmup_ns=0, measure_ns=150_000)
    gets = sum(c.gets for c in cluster.clients)
    reads = cluster.server_device.reads_served
    # Mostly one READ per GET, occasionally two for wrapped homes (up
    # to clients*window GETs are still mid-flight when the run stops).
    in_flight = len(cluster.clients) * cluster.config.window
    assert gets - in_flight <= reads <= gets * 1.2
    assert result.extra["wrong_values"] == 0


def test_farm_full_var_mode_two_real_reads():
    """VAR mode: the second READ follows the *actual* extent pointer
    stored in the slot, and the bytes come back right."""
    cluster = farm_full(get_fraction=1.0, n_keys=1500, inline_values=False)
    result = cluster.run(warmup_ns=0, measure_ns=100_000)
    assert result.ops > 100
    assert result.extra["get_misses"] == 0
    assert result.extra["wrong_values"] == 0
    gets = sum(c.gets for c in cluster.clients)
    # Two READs per GET (plus in-flight slack).
    assert cluster.server_device.reads_served > 1.8 * (gets - 64)


def test_farm_full_var_extents_live_in_registered_region():
    cluster = farm_full(inline_values=False)
    assert cluster.table.extents is cluster.extents_mr.buf


def test_farm_full_inline_beats_var_like_the_emulation():
    em = farm_full(get_fraction=1.0, n_keys=1500, inline_values=True)
    var = farm_full(get_fraction=1.0, n_keys=1500, inline_values=False)
    em_mops = em.run().mops
    var_mops = var.run().mops
    assert em_mops > 1.1 * var_mops


def test_farm_full_throughput_close_to_emulated():
    from repro.baselines import FarmCluster, FarmConfig

    full = FarmFullCluster(
        FarmFullConfig(value_bytes=32),
        Workload(get_fraction=1.0, value_size=32, n_keys=4000),
    )
    full.preload(range(4000))
    full_mops = full.run().mops
    emulated = FarmCluster(
        FarmConfig(value_bytes=32), Workload(get_fraction=1.0, value_size=32)
    ).run().mops
    assert abs(full_mops - emulated) / emulated < 0.25
