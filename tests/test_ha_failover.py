"""Replicated partitions losing their primary mid-load.

The acceptance bar for repro.ha: with rf=3 and majority acks, killing a
partition's primary must lose zero acknowledged writes, the recorded
history must check out linearizable, availability must stay above 99%,
and the whole run — including failover timing — must be bit-for-bit
reproducible from the seed.
"""

import pytest

from repro.faults import FaultPlan, chaos, run_chaos
from repro.herd import HerdCluster, HerdConfig
from repro.workloads import Workload

pytestmark = pytest.mark.usefixtures("staging_checked")

#: the ha-smoke configuration (Makefile) — one primary kill at 35% of a
#: 300 us horizon, majority acks, background noise at half intensity
ACCEPTANCE = dict(
    seed=11,
    scenario="kill-primary",
    horizon_ns=300_000.0,
    n_clients=4,
    n_items=64,
    value_size=24,
    n_server_processes=2,
    intensity=0.5,
    replication_factor=3,
    ack_policy="majority",
)


@pytest.fixture(scope="module")
def acceptance_report():
    return run_chaos(**ACCEPTANCE)


def test_kill_primary_loses_no_acked_writes(acceptance_report):
    report = acceptance_report
    assert report.ok, report.violations
    assert report.checker == "linearizable"
    assert report.ops_lost == 0
    assert report.ops_acked > 0
    assert report.promotions >= 1


def test_kill_primary_availability_above_99_percent(acceptance_report):
    report = acceptance_report
    assert report.availability > 0.99, "availability %.4f" % report.availability
    assert report.availability <= 1.0
    # the outage is real: failover took measurable (but bounded) time
    assert 0.0 < report.failover_latency_ns < 0.1 * ACCEPTANCE["horizon_ns"]


def test_kill_primary_fingerprint_is_deterministic(acceptance_report):
    again = run_chaos(**ACCEPTANCE)
    assert again.ok, again.violations
    # the fingerprint covers the outage windows and failover timing,
    # not just op counts — equal fingerprints pin the whole schedule
    assert again.fingerprint == acceptance_report.fingerprint
    assert again.failover_latency_ns == acceptance_report.failover_latency_ns
    assert (again.promotions, again.replays, again.stale_nacks) == (
        acceptance_report.promotions,
        acceptance_report.replays,
        acceptance_report.stale_nacks,
    )


def test_partition_primary_scenario_keeps_the_history_linearizable():
    report = run_chaos(
        **dict(ACCEPTANCE, scenario="partition-primary", horizon_ns=150_000.0)
    )
    # the old primary comes back from the partition with a stale epoch:
    # fencing must turn its acks into nacks, never into split brain
    assert report.ok, report.violations
    assert report.checker == "linearizable"
    assert report.ops_lost == 0
    assert report.scenario == "partition-primary"


def test_replayed_put_applies_exactly_once():
    # Regression: this seed (an ha-failover sweep point) once lost an
    # acked write — a PUT committed, its ack was dropped by link noise,
    # and the client's retry was re-staged as a *new* update that
    # re-committed the old value over a newer one.  The request token in
    # the update record and the replica's completed-table turn that
    # retry into a plain re-ack.
    report = run_chaos(
        seed=15818362488815368293,
        scenario="kill-primary",
        horizon_ns=150_000.0,
        n_clients=4,
        n_items=64,
        value_size=24,
        n_server_processes=2,
        intensity=0.25,
        replication_factor=2,
        ack_policy="all",
    )
    assert report.ok, report.violations
    assert report.checker == "linearizable"
    assert report.ops_lost == 0


def test_ha_scenarios_require_replication():
    with pytest.raises(ValueError):
        run_chaos(scenario="kill-primary", replication_factor=1)
    with pytest.raises(ValueError):
        run_chaos(scenario="no-such-scenario")


def test_outcome_row_reports_the_verdict(acceptance_report):
    row = acceptance_report.outcome_row()
    assert row["scenario"] == "kill-primary"
    assert row["verdict"] == "OK"
    assert row["ops_lost"] == 0
    assert row["ops_acked"] == acceptance_report.ops_acked
    text = acceptance_report.summary()
    assert "kill-primary" in text and "linearizable" in text


# ---------------------------------------------------------------------------
# Lease-aware parking
# ---------------------------------------------------------------------------


def test_promotion_unparks_the_partition_before_the_old_primary_returns():
    """park -> promote -> un-park.

    With a tiny window the dead partition's slots fill instantly and
    clients park further ops for it.  The parked backlog must start
    draining at *promotion* (a backup adopted the partition), long
    before the crashed replica itself recovers — that gap is exactly
    what replication buys over single-copy crash recovery.
    """
    config = HerdConfig(
        n_server_processes=2,
        window=2,
        retry_timeout_ns=20_000.0,
        replication_factor=3,
        ack_policy="majority",
    )
    cluster = HerdCluster(config, n_client_machines=2, seed=9)
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=24, n_keys=64))
    cluster.wire()
    cluster.preload(range(64), 24)
    down_start, down_end = 60_000.0, 260_000.0
    cluster.install_faults(
        FaultPlan(seed=9).crash_server(
            0, at_ns=down_start, down_ns=down_end - down_start
        )
    )
    stamps = []
    for replica, servers in enumerate(cluster.ha.replica_servers):
        def hook(client_id, op, now, _r=replica):
            stamps.append((_r, now))

        servers[0].completion_hook = hook
    parked_high = [0]

    def probe():
        while True:
            yield cluster.sim.timeout(1_000.0)
            backlog = sum(len(c._parked[0]) for c in cluster.clients)
            parked_high[0] = max(parked_high[0], backlog)

    cluster.sim.process(probe(), name="park-probe")
    cluster.run(warmup_ns=0, measure_ns=300_000.0)

    monitor = cluster.ha.monitor
    assert monitor.promotions >= 1
    outages = [o for o in monitor.outages if o[0] == 0]
    assert outages, "the monitor never noticed the dead partition"
    adopted = outages[0][2]
    assert down_start < adopted < down_end
    assert parked_high[0] > 0, "the outage never forced an op to park"
    # completions for partition 0 resume between promotion and the old
    # primary's recovery, and none of them come from the dead replica
    resumed = [(r, t) for r, t in stamps if adopted <= t < down_end]
    assert resumed, "partition 0 stayed parked until the crashed replica returned"
    assert all(r != 0 for r, t in resumed)


def test_kill_primary_fingerprint_is_pinned(acceptance_report):
    """Recorded on the pre-overhaul single-heap calendar; the new
    engine must reproduce it byte for byte."""
    assert acceptance_report.fingerprint == (
        "5e41a96ad9f7c710ee5aa96d618454085eb6a3b852e1398f73ed8bb2b7f8d1c0"
    )


# ---------------------------------------------------------------------------
# un-inlined values: records and requests that leave host memory at DMA time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value_size", [300, 600, 1000])
def test_replicated_puts_above_the_inline_limit(value_size):
    # above max_inline (256 B) a mesh record is staged and fetched by
    # the NIC later, and so is the client's request WRITE
    report = run_chaos(
        **dict(ACCEPTANCE, value_size=value_size, horizon_ns=150_000.0, seed=12)
    )
    assert report.ok, report.violations
    assert report.checker == "linearizable"
    assert report.ops_lost == 0
    assert report.promotions >= 1


@pytest.mark.parametrize("seed", [11, 13])
def test_catchup_replay_waits_for_the_staging_ring(seed):
    # Regression: the promoted primary's catch-up replay staged ~80
    # records of 1 KiB in one loop, wrapped the 64 KiB ring onto extents
    # the NIC had not fetched yet and raised "HA staging ring
    # exhausted" — there was no back-pressure.
    plan = FaultPlan(seed=seed).crash_server(0, at_ns=52_500.0, down_ns=45_000.0)
    report = run_chaos(
        seed=seed,
        scenario="kill-primary",
        horizon_ns=150_000.0,
        n_clients=4,
        n_items=64,
        value_size=1000,
        n_server_processes=2,
        plan=plan,
    )
    assert report.ok, report.violations
    assert report.checker == "linearizable"
    assert report.ops_lost == 0


@pytest.mark.parametrize("seed", [11, 13])
def test_a_retry_never_restages_over_an_unfetched_request(seed):
    # Regression: a retried un-inlined PUT was staged through its own
    # counter into the staging slots first sends use, so it could
    # overwrite a request the NIC had not fetched yet; that request then
    # carried the *other* op's bytes into its window slot and the server
    # acked a PUT it never executed.  At seed 11, client 3's PUT acked
    # at 22 096 ns was invisible to a GET at 90 930 ns (no failover on
    # that partition); at seed 13 one acked write was lost outright.
    # Classic runs hid it: every PUT there carries value_for(item).
    report = run_chaos(**dict(ACCEPTANCE, seed=seed, value_size=600, horizon_ns=150_000.0))
    assert report.ok, report.violations
    assert report.checker == "linearizable"
    assert report.ops_lost == 0


def test_a_fenced_response_leaves_no_extent_behind(monkeypatch):
    # Regression: the server staged an un-inlined response, charged
    # post_send_ns, and then returned on the epoch fence without posting
    # it.  At seed 6 one extent stayed "in flight" forever — a ring that
    # waits when full would have wedged on it.  Staging now happens
    # after the last fence, right before post_send.
    clusters = []
    report_of = chaos._report

    def keep_cluster(run):
        clusters.append(run.cluster)
        return report_of(run)

    monkeypatch.setattr(chaos, "_report", keep_cluster)
    report = run_chaos(
        **dict(ACCEPTANCE, seed=6, value_size=300, horizon_ns=150_000.0, intensity=1.0)
    )
    assert report.ok, report.violations
    (cluster,) = clusters
    rings = [s._staging for servers in cluster.ha.replica_servers for s in servers]
    rings += [node._staging for node in cluster.ha.nodes]
    assert [ring.in_flight for ring in rings] == [0] * len(rings)
