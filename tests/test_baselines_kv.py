"""Tests for the Pilaf-em-OPT and FaRM-em baseline systems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    FarmCluster,
    FarmConfig,
    FarmFullCluster,
    FarmFullConfig,
    PilafCluster,
    PilafConfig,
    PilafFullCluster,
    PilafFullConfig,
)
from repro.workloads import Workload


def pilaf(get_fraction=0.95, n_clients=8, **cfg):
    config = PilafConfig(**cfg)
    return PilafCluster(
        config,
        Workload(get_fraction=get_fraction, value_size=config.value_bytes),
        n_clients=n_clients,
        n_client_machines=4,
    )


def farm(get_fraction=0.95, n_clients=8, **cfg):
    config = FarmConfig(**cfg)
    return FarmCluster(
        config,
        Workload(get_fraction=get_fraction, value_size=config.value_bytes),
        n_clients=n_clients,
        n_client_machines=4,
    )


# ---------------------------------------------------------------------------
# Pilaf
# ---------------------------------------------------------------------------


def test_pilaf_makes_progress_on_mixed_workload():
    cluster = pilaf(get_fraction=0.5)
    result = cluster.run(warmup_ns=0, measure_ns=80_000)
    assert result.ops > 50
    gets = sum(c.gets for c in cluster.clients)
    puts = sum(c.puts for c in cluster.clients)
    assert gets > 0 and puts > 0


def test_pilaf_average_probes_near_1_6():
    """Section 5.1.1: 1.6 bucket READs per GET on average."""
    cluster = pilaf(get_fraction=1.0)
    result = cluster.run(warmup_ns=0, measure_ns=120_000)
    assert 1.4 <= result.extra["avg_probes"] <= 1.8


def test_pilaf_gets_issue_reads_not_server_work():
    """GETs bypass the server CPU entirely: only PUTs are handled."""
    cluster = pilaf(get_fraction=1.0)
    cluster.run(warmup_ns=0, measure_ns=60_000)
    assert cluster.server_device.reads_served > 100
    assert sum(s.puts_handled for s in cluster.servers) == 0


def test_pilaf_puts_are_send_recv_roundtrips():
    cluster = pilaf(get_fraction=0.0)
    cluster.run(warmup_ns=0, measure_ns=60_000)
    assert cluster.server_device.sends_received > 50
    assert sum(s.puts_handled for s in cluster.servers) > 50
    # Every response found a pre-posted RECV.
    for client in cluster.clients:
        assert client.qp.rnr_drops == 0


def test_pilaf_server_never_runs_out_of_recvs():
    cluster = pilaf(get_fraction=0.0)
    cluster.run(warmup_ns=0, measure_ns=60_000)
    for qp in cluster.server_device.qps.values():
        assert qp.rnr_drops == 0


def test_pilaf_get_throughput_band():
    """Paper: 9.9 Mops GETs (2.6 READs each against a 26 Mops cap)."""
    cluster = PilafCluster(
        PilafConfig(value_bytes=32), Workload(get_fraction=1.0, value_size=32)
    )
    result = cluster.run()
    assert 8.0 < result.mops < 12.0


# ---------------------------------------------------------------------------
# FaRM
# ---------------------------------------------------------------------------


def test_farm_inline_get_is_one_read_var_is_two():
    em = farm(get_fraction=1.0, inline_values=True)
    em.run(warmup_ns=0, measure_ns=50_000)
    gets = sum(c.gets for c in em.clients)
    assert em.server_device.reads_served == pytest.approx(gets, abs=em.config.window * len(em.clients))

    var = farm(get_fraction=1.0, inline_values=False)
    var.run(warmup_ns=0, measure_ns=50_000)
    var_gets = sum(c.gets for c in var.clients)
    assert var.server_device.reads_served >= 1.9 * var_gets


def test_farm_neighborhood_read_sizes():
    """GET READ is 6*(SK+SV) inline, 6*(SK+SP) out-of-table."""
    assert FarmConfig(value_bytes=32).neighborhood_read_bytes == 6 * 48
    assert FarmConfig(value_bytes=32, inline_values=False).neighborhood_read_bytes == 6 * 24


def test_farm_put_uses_writes_both_ways():
    cluster = farm(get_fraction=0.0)
    cluster.run(warmup_ns=0, measure_ns=60_000)
    assert cluster.server_device.writes_received > 50   # requests in
    client_writes = sum(c.device.writes_received for c in cluster.clients)
    assert client_writes > 50                            # acks back
    assert cluster.server_device.sends_received == 0     # no SENDs at all


def test_farm_put_server_work_counted():
    cluster = farm(get_fraction=0.0)
    result = cluster.run(warmup_ns=0, measure_ns=60_000)
    assert result.extra["puts_handled"] > 50


def test_farm_em_beats_var_on_gets():
    """The second RTT costs VAR mode real throughput (Figure 9)."""
    em = FarmCluster(
        FarmConfig(value_bytes=32), Workload(get_fraction=1.0, value_size=32)
    ).run()
    var = FarmCluster(
        FarmConfig(value_bytes=32, inline_values=False),
        Workload(get_fraction=1.0, value_size=32),
    ).run()
    assert em.mops > 1.15 * var.mops


def test_farm_get_throughput_band():
    """Paper: 17.2 Mops for FaRM-em GETs with 48-byte items."""
    result = FarmCluster(
        FarmConfig(value_bytes=32), Workload(get_fraction=1.0, value_size=32)
    ).run()
    assert 14.0 < result.mops < 20.0


def test_farm_throughput_collapses_with_large_inline_values():
    """Figure 10: FaRM-em's READ size grows as 6*(SV+16), so large
    values crush its GET throughput."""
    small = FarmCluster(
        FarmConfig(value_bytes=16), Workload(get_fraction=1.0, value_size=16)
    ).run()
    large = FarmCluster(
        FarmConfig(value_bytes=256), Workload(get_fraction=1.0, value_size=256)
    ).run()
    assert small.mops > 2.0 * large.mops


def test_emulated_systems_put_faster_than_get():
    """Figure 9's surprise: emulated Pilaf/FaRM PUTs outpace their own
    GETs, because small messages beat multiple/large READs."""
    get_side = PilafCluster(
        PilafConfig(value_bytes=32), Workload(get_fraction=1.0, value_size=32)
    ).run()
    put_side = PilafCluster(
        PilafConfig(value_bytes=32), Workload(get_fraction=0.0, value_size=32)
    ).run()
    assert put_side.mops > get_side.mops


# ---------------------------------------------------------------------------
# Config validation (all four baseline configs)
# ---------------------------------------------------------------------------

AT_LEAST_ONE = (1, float("inf"))
#: config -> field -> the closed range it accepts
BOUNDS = {
    PilafConfig: dict.fromkeys(
        ["value_bytes", "window", "n_server_processes"], AT_LEAST_ONE
    ),
    PilafFullConfig: dict.fromkeys(
        ["value_bytes", "n_buckets", "window", "n_server_processes"],
        AT_LEAST_ONE,
    ),
    FarmConfig: dict.fromkeys(
        ["value_bytes", "window", "n_server_processes"], AT_LEAST_ONE
    ),
    FarmFullConfig: dict.fromkeys(
        ["value_bytes", "n_slots", "window", "n_server_processes"],
        AT_LEAST_ONE,
    ),
}
FIELDS = [(cls, field) for cls in BOUNDS for field in sorted(BOUNDS[cls])]


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(FIELDS),
    value=st.one_of(st.integers(-4, 4), st.integers(), st.floats()),
)
def test_baseline_configs_accept_exactly_their_ranges(case, value):
    """Each field accepts exactly its range; anything else — NaN
    included — fails at construction, naming the field, instead of deep
    in the wiring (window 0: a zero-length MR; no server process: a
    ZeroDivisionError)."""
    cls, field = case
    lo, hi = BOUNDS[cls][field]
    if lo <= value <= hi:
        assert getattr(cls(**{field: value}), field) == value
    else:
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})


@pytest.mark.parametrize(
    "cls,config",
    [
        (PilafCluster, PilafConfig(value_bytes=1, window=1, n_server_processes=1)),
        (FarmCluster, FarmConfig(value_bytes=1, window=1, n_server_processes=1)),
        (
            PilafFullCluster,
            PilafFullConfig(value_bytes=1, n_buckets=1, window=1, n_server_processes=1),
        ),
        (
            FarmFullCluster,
            FarmFullConfig(value_bytes=1, n_slots=64, window=1, n_server_processes=1),
        ),
    ],
)
def test_the_smallest_accepted_configs_run(cls, config):
    cluster = cls(
        config,
        Workload(get_fraction=0.5, value_size=config.value_bytes, n_keys=1),
        n_clients=2,
        n_client_machines=1,
    )
    if hasattr(cluster, "preload"):
        cluster.preload(range(1))
    result = cluster.run(warmup_ns=0, measure_ns=20_000)
    assert result.ops > 0
