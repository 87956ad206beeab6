"""Tests for the ECHO servers (Figure 5's systems)."""

import pytest

from repro.baselines import EchoCluster, EchoConfig
from repro.verbs import Transport

pytestmark = pytest.mark.usefixtures("staging_checked")


def run_echo(config, n_clients=6, measure_ns=60_000.0):
    cluster = EchoCluster(config, n_clients=n_clients, n_client_machines=3)
    return cluster, cluster.run(warmup_ns=10_000.0, measure_ns=measure_ns)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        EchoConfig(request="FETCH")
    with pytest.raises(ValueError):
        EchoConfig(response="FETCH")
    with pytest.raises(ValueError):
        EchoConfig(request="SEND", response="WRITE")


def test_optimization_levels_are_cumulative():
    base = EchoConfig.wr_wr()
    basic = base.at_optimization_level("basic")
    assert not basic.unreliable and not basic.unsignaled and not basic.inline
    unrel = base.at_optimization_level("+unreliable")
    assert unrel.unreliable and not unrel.unsignaled
    unsig = base.at_optimization_level("+unsignaled")
    assert unsig.unreliable and unsig.unsignaled and not unsig.inline
    full = base.at_optimization_level("+inlined")
    assert full.unreliable and full.unsignaled and full.inline
    with pytest.raises(ValueError):
        base.at_optimization_level("+teleport")


def test_transport_selection():
    assert EchoConfig.wr_wr().write_transport is Transport.UC
    assert EchoConfig.wr_wr(unreliable=False).write_transport is Transport.RC
    assert EchoConfig.wr_send().send_transport is Transport.UD
    assert EchoConfig.send_send().send_transport is Transport.UC
    assert EchoConfig.send_send(unreliable=False).send_transport is Transport.RC


# ---------------------------------------------------------------------------
# correctness: echoes return the exact bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        EchoConfig.wr_wr(),
        EchoConfig.wr_send(),
        EchoConfig.send_send(),
        EchoConfig.send_send(send_over_ud=True),
        EchoConfig.wr_wr().at_optimization_level("basic"),
        EchoConfig.wr_send().at_optimization_level("+unsignaled"),
        EchoConfig.send_send().at_optimization_level("basic"),
    ],
    ids=[
        "wr-wr", "wr-send", "send-send", "send-send-ud",
        "wr-wr-basic", "wr-send-unsignaled", "send-send-basic",
    ],
)
def test_echo_payloads_roundtrip_exactly(config):
    cluster, result = run_echo(config)
    assert result.ops > 50
    assert result.extra["echo_mismatches"] == 0
    assert sum(c.echoed_bytes_ok for c in cluster.clients) > 50


@pytest.mark.parametrize(
    "preset", [EchoConfig.wr_send, EchoConfig.wr_wr, EchoConfig.send_send],
    ids=["wr-send", "wr-wr", "send-send"],
)
def test_unfetched_responses_are_never_overwritten(preset):
    """1 KiB non-inlined echoes from 96 clients into two server cores
    outrun the NIC's fetches.  The servers' staging cursors used to wrap
    onto responses still awaiting their DMA read, and about 60 % of the
    echoes came back carrying another echo's bytes; now a full ring
    waits for the next fetch."""
    config = preset(payload_bytes=1024, n_server_processes=2)
    cluster = EchoCluster(config.at_optimization_level("+unsignaled"), n_clients=96)
    result = cluster.run()
    assert result.ops > 100
    assert result.extra["echo_mismatches"] == 0
    assert sum(s._staging.waits for s in cluster.servers) > 0


def test_all_verb_pairs_make_progress_at_every_level():
    for preset in (EchoConfig.wr_wr(), EchoConfig.wr_send(), EchoConfig.send_send()):
        for level in ("basic", "+unreliable", "+unsignaled", "+inlined"):
            _cluster, result = run_echo(
                preset.at_optimization_level(level), n_clients=4, measure_ns=30_000.0
            )
            assert result.ops > 10, (preset, level)


# ---------------------------------------------------------------------------
# the paper's performance claims (Figure 5)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig5_rates():
    rates = {}
    for name, preset in (
        ("WR/WR", EchoConfig.wr_wr()),
        ("WR/SEND", EchoConfig.wr_send()),
        ("SEND/SEND", EchoConfig.send_send()),
    ):
        for level in ("basic", "+unreliable", "+unsignaled", "+inlined"):
            cluster = EchoCluster(
                preset.at_optimization_level(level), n_clients=48, n_client_machines=16
            )
            rates[(name, level)] = cluster.run().mops
    return rates


def test_optimizations_increase_throughput_monotonically(fig5_rates):
    for name in ("WR/WR", "WR/SEND", "SEND/SEND"):
        series = [
            fig5_rates[(name, level)]
            for level in ("basic", "+unreliable", "+unsignaled", "+inlined")
        ]
        assert series == sorted(series), (name, series)
        assert series[-1] > 2.0 * series[0]  # "increases significantly"


def test_wr_send_matches_wr_wr_at_peak(fig5_rates):
    """The WRITE/SEND hybrid gives WR/WR's throughput (Section 3.2.2),
    which is HERD's whole design argument."""
    wr_wr = fig5_rates[("WR/WR", "+inlined")]
    wr_send = fig5_rates[("WR/SEND", "+inlined")]
    assert abs(wr_send - wr_wr) / wr_wr < 0.1


def test_peak_echo_rates_match_paper_bands(fig5_rates):
    """Paper: WR/WR and WR/SEND ~26 Mops, SEND/SEND ~21 Mops."""
    assert 22.0 < fig5_rates[("WR/WR", "+inlined")] < 30.0
    assert 22.0 < fig5_rates[("WR/SEND", "+inlined")] < 30.0
    assert 17.0 < fig5_rates[("SEND/SEND", "+inlined")] < 23.0


def test_optimized_send_send_beats_three_quarters_of_read_rate(fig5_rates):
    """Section 3.2.2: optimized SEND/SEND echoes reach more than 3/4 of
    the peak inbound READ rate (26 Mops)."""
    assert fig5_rates[("SEND/SEND", "+inlined")] > 0.75 * 26.0


def test_footnote_send_send_over_ud_matches_uc():
    """The paper's footnote 1: 'Figure 5 uses SENDs over UC, but we
    have verified that similar throughput is possible using SENDs over
    UD.'"""
    uc = EchoCluster(
        EchoConfig.send_send(), n_clients=36, n_client_machines=12
    ).run().mops
    ud = EchoCluster(
        EchoConfig.send_send(send_over_ud=True), n_clients=36, n_client_machines=12
    ).run().mops
    assert abs(uc - ud) / uc < 0.15


# ---------------------------------------------------------------------------
# Figure 7: prefetching
# ---------------------------------------------------------------------------


def test_prefetch_lets_few_cores_reach_high_rate():
    """Figure 7: with prefetching, 5 cores deliver peak throughput even
    with N = 8 memory accesses; without it they fall far short."""
    base = EchoConfig.wr_send(memory_accesses=8, n_server_processes=5, window=8)
    with_prefetch = EchoCluster(
        base, n_clients=48, n_client_machines=16
    ).run().mops
    without_prefetch = EchoCluster(
        EchoConfig.wr_send(
            memory_accesses=8, prefetch=False, n_server_processes=5, window=8
        ),
        n_clients=48,
        n_client_machines=16,
    ).run().mops
    assert with_prefetch > 2.5 * without_prefetch
    assert with_prefetch > 15.0
