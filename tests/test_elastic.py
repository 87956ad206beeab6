"""Elastic resharding: shard maps, live migration, membership under chaos.

The acceptance bar for repro.elastic: joining a spare partition while a
kill-primary fault lands mid-migration must complete the reshard (after
an abort and restart), lose zero acknowledged writes, keep the history
linearizable, and reproduce bit-for-bit from the seed.
"""

import pytest

from repro.elastic import HASH_SPACE, ShardMap
from repro.faults import run_chaos
from repro.herd import HerdConfig
from repro.herd import wire
from repro.herd.config import partition_of, route_key

#: NOT_OWNER nacks re-park ops at their new owner: keep the client's
#: running parked count honest throughout
pytestmark = pytest.mark.usefixtures("parked_count_checked")

#: the elastic-smoke configuration (Makefile) — a 3-partition cluster
#: born with 2 active, the spare joining at 25% of the horizon and the
#: first migration source's primary crashing at 27%
ACCEPTANCE = dict(
    seed=11,
    scenario="migrate-under-kill",
    horizon_ns=300_000.0,
    n_clients=4,
    n_items=64,
    value_size=24,
    n_server_processes=3,
    intensity=0.5,
    replication_factor=3,
    ack_policy="majority",
)


@pytest.fixture(scope="module")
def acceptance_report():
    return run_chaos(**ACCEPTANCE)


# ---------------------------------------------------------------------------
# ShardMap
# ---------------------------------------------------------------------------


def test_striped_map_covers_the_hash_space_equally():
    shard_map = ShardMap.striped(4)
    assert shard_map.version == 0
    assert shard_map.owners() == (0, 1, 2, 3)
    ranges = shard_map.ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == HASH_SPACE
    for (_lo, hi, _who), (lo2, _hi2, _who2) in zip(ranges, ranges[1:]):
        assert hi == lo2  # gap-free
    for owner in range(4):
        assert shard_map.share_of(owner) == pytest.approx(0.25)


def test_owner_lookup_respects_range_boundaries():
    shard_map = ShardMap.striped(2)
    (lo0, hi0, own0), (lo1, hi1, own1) = shard_map.ranges()
    assert shard_map.owner_of_hash(lo0) == own0
    assert shard_map.owner_of_hash(hi0 - 1) == own0
    assert shard_map.owner_of_hash(lo1) == own1
    assert shard_map.owner_of_hash(HASH_SPACE - 1) == own1
    with pytest.raises(ValueError):
        shard_map.owner_of_hash(HASH_SPACE)
    with pytest.raises(ValueError):
        shard_map.owner_of_hash(-1)
    # owner_of hashes the same 8-byte little-endian prefix partition_of uses
    keyhash = (123456789).to_bytes(8, "little")
    assert shard_map.owner_of(keyhash) == shard_map.owner_of_hash(123456789)


def test_assign_splits_bumps_version_and_leaves_the_old_map_alone():
    before = ShardMap.striped(2)
    lo, hi = HASH_SPACE // 4, HASH_SPACE // 2
    after = before.assign(lo, hi, 2)
    assert after.version == before.version + 1
    assert after.owner_of_hash(lo) == 2
    assert after.owner_of_hash(hi - 1) == 2
    assert after.owner_of_hash(lo - 1) == 0
    assert after.owner_of_hash(hi) == 1
    # immutability: the source map still routes the old way
    assert before.owner_of_hash(lo) == 0
    # giving the slice back merges the split ranges again
    restored = after.assign(lo, hi, 0)
    assert restored.entries == before.entries
    assert restored.version == before.version + 2


def test_plan_join_grants_an_equal_share():
    shard_map = ShardMap.striped(2)
    moves = shard_map.plan_join(2)
    assert moves and all(src in (0, 1) and dst == 2 for _l, _h, src, dst in moves)
    for lo, hi, src, _dst in moves:
        assert shard_map.owner_of_hash(lo) == src
        assert shard_map.owner_of_hash(hi - 1) == src
    for lo, hi, _src, dst in moves:
        shard_map = shard_map.assign(lo, hi, dst)
    assert shard_map.owners() == (0, 1, 2)
    for owner in range(3):
        assert shard_map.share_of(owner) == pytest.approx(1 / 3, abs=1e-9)
    with pytest.raises(ValueError):
        shard_map.plan_join(2)  # already an owner


def test_plan_leave_evacuates_everything_to_the_survivors():
    shard_map = ShardMap.striped(3)
    moves = shard_map.plan_leave(1)
    assert moves and all(src == 1 for _l, _h, src, _d in moves)
    for lo, hi, _src, dst in moves:
        shard_map = shard_map.assign(lo, hi, dst)
    assert 1 not in shard_map.owners()
    assert shard_map.share_of(1) == 0.0
    with pytest.raises(ValueError):
        ShardMap.striped(1).plan_leave(0)  # cannot evacuate the last owner


def test_shard_map_validation():
    with pytest.raises(ValueError):
        ShardMap(0, [])
    with pytest.raises(ValueError):
        ShardMap(0, [(1, 0)])  # first range must start at 0
    with pytest.raises(ValueError):
        ShardMap(0, [(0, 0), (5, 1), (5, 2)])  # duplicate start
    with pytest.raises(ValueError):
        ShardMap(0, [(0, 0), (HASH_SPACE, 1)])  # start beyond the space
    with pytest.raises(ValueError):
        ShardMap.striped(0)


def test_shard_map_wire_roundtrip():
    shard_map = ShardMap.striped(3, version=7).assign(
        HASH_SPACE // 2, HASH_SPACE, 0
    )
    payload = wire.encode_shard_map(shard_map.version, shard_map.entries)
    version, entries = wire.decode_shard_map(payload)
    assert version == shard_map.version
    assert ShardMap(version, entries) == shard_map


# ---------------------------------------------------------------------------
# route_key (the consolidated routing helper)
# ---------------------------------------------------------------------------


def test_route_key_matches_the_static_mapping_without_a_map():
    keyhash = (99).to_bytes(8, "little") + b"\x00" * 8
    assert route_key(keyhash, 4) == partition_of(keyhash, 4)


def test_route_key_follows_the_shard_map_when_given_one():
    shard_map = ShardMap.striped(2).assign(0, HASH_SPACE, 1)
    keyhash = (99).to_bytes(8, "little") + b"\x00" * 8
    assert route_key(keyhash, 2, shard_map) == 1


def test_route_key_rejects_nonpositive_partition_counts():
    keyhash = bytes(16)
    with pytest.raises(ValueError):
        route_key(keyhash, 0)
    with pytest.raises(ValueError):
        partition_of(keyhash, 0)


def test_elastic_config_validation():
    with pytest.raises(ValueError):
        HerdConfig(n_server_processes=2, n_active_partitions=0,
                   replication_factor=3)
    with pytest.raises(ValueError):
        HerdConfig(n_server_processes=2, n_active_partitions=3,
                   replication_factor=3)
    with pytest.raises(ValueError):
        HerdConfig(n_server_processes=2, n_active_partitions=1)  # rf == 1


# ---------------------------------------------------------------------------
# migrate-under-kill acceptance
# ---------------------------------------------------------------------------


def test_migrate_under_kill_loses_no_acked_writes(acceptance_report):
    report = acceptance_report
    assert report.ok, report.violations
    assert report.checker == "linearizable"
    assert report.ops_lost == 0
    assert report.ops_acked > 0
    assert report.promotions >= 1  # the kill really forced a failover


def test_migrate_under_kill_completes_the_reshard(acceptance_report):
    report = acceptance_report
    # both planned moves (one from each original owner) must land, and
    # the pinned crash must have aborted at least one attempt on the way
    assert report.migrations_done == 2
    assert report.migrations_aborted >= 1
    assert report.map_version == 2
    assert report.records_migrated > 0
    # clients really re-routed through RESP_NOT_OWNER nacks
    assert report.not_owner_nacks > 0
    assert report.reroutes > 0
    assert report.tail_completed > 0


def test_migrate_under_kill_fingerprint_is_deterministic(acceptance_report):
    again = run_chaos(**ACCEPTANCE)
    assert again.ok, again.violations
    # the fingerprint covers the final map, every migration, and each
    # client's re-routing — equal fingerprints pin the whole reshard
    assert again.fingerprint == acceptance_report.fingerprint
    assert again.map_version == acceptance_report.map_version
    assert (again.migrations_done, again.migrations_aborted) == (
        acceptance_report.migrations_done,
        acceptance_report.migrations_aborted,
    )
    assert again.reroutes == acceptance_report.reroutes


def test_migrate_under_kill_requires_an_elastic_config():
    with pytest.raises(ValueError):
        run_chaos(
            scenario="migrate-under-kill",
            config=HerdConfig(
                n_server_processes=2,
                retry_timeout_ns=10_000.0,
                replication_factor=3,
            ),
        )


def test_elastic_summary_reports_the_reshard(acceptance_report):
    text = acceptance_report.summary()
    assert "migrate-under-kill" in text
    assert "shard map v2" in text
    row = acceptance_report.outcome_row()
    assert row["verdict"] == "OK"
    assert row["ops_lost"] == 0


def test_migrate_under_kill_fingerprint_is_pinned(acceptance_report):
    """Recorded on the pre-overhaul single-heap calendar; the new
    engine must reproduce it byte for byte."""
    assert acceptance_report.fingerprint == (
        "552896d0c27ca411b20eb5a664b57a00855513e1927b24f4f8bf72788c5a17b7"
    )


# ---------------------------------------------------------------------------
# leave under load
# ---------------------------------------------------------------------------


def test_a_partition_leaves_under_load_and_loses_nothing(monkeypatch):
    """``schedule_leave`` evacuates a live partition onto the survivors
    while replicated traffic and background noise run: one more
    membership function in the scenario table, every HA oracle on."""
    import dataclasses

    from repro.faults import chaos

    runs = []

    def leave(run):
        runs.append(run)
        run.cluster.elastic.coordinator.schedule_leave(2, at_ns=0.25 * run.horizon_ns)

    monkeypatch.setitem(
        chaos.SCENARIOS,
        "nemesis",
        dataclasses.replace(chaos.SCENARIOS["nemesis"], membership=leave),
    )
    config = HerdConfig(
        n_server_processes=3,
        n_active_partitions=3,
        window=4,
        retry_timeout_ns=10_000.0,
        adaptive_retry=True,
        min_retry_timeout_ns=5_000.0,
        replication_factor=3,
    )
    report = run_chaos(
        seed=11,
        scenario="nemesis",
        config=config,
        n_clients=4,
        n_items=64,
        value_size=24,
        intensity=0.5,
    )
    assert report.ok, report.violations
    assert report.checker == "linearizable"
    assert report.ops_lost == 0
    assert report.migrations_done == 1 and report.records_migrated > 0
    assert report.reroutes > 0
    final_map = runs[0].cluster.elastic.shard_map
    assert {owner for _start, owner in final_map.entries} == {0, 1}
