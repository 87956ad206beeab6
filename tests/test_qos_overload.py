"""Acceptance tests for repro.qos: overload protection under flash
crowds, aggressor tenants, and stalled clients (docs/QOS.md).

The contract numbers come straight from ISSUE 8: with shedding on, a
10x flash crowd must hold in-SLO goodput at >= 70% of the pre-burst
level with zero lost acked writes; with shedding off the same crowd
must demonstrably collapse.  A well-behaved tenant sharing the cluster
with an aggressor keeps its p99 within 3x of an isolated run.  Each
``run_chaos`` call here takes well under a second.
"""

import pytest

from repro.faults import FaultPlan
from repro.faults.chaos import SCENARIOS, run_chaos
from repro.herd import HerdCluster, HerdConfig
from repro.obs import MetricsRegistry
from repro.workloads import Workload

#: open-loop arrivals park into full windows and the responder drains
#: them: keep the client's running parked count honest throughout
pytestmark = pytest.mark.usefixtures("parked_count_checked")


@pytest.fixture(scope="module")
def flash_on():
    return run_chaos(seed=7, scenario="flash-crowd", shedding=True)


@pytest.fixture(scope="module")
def flash_off():
    return run_chaos(seed=7, scenario="flash-crowd", shedding=False)


@pytest.fixture(scope="module")
def aggressor_on():
    return run_chaos(seed=7, scenario="aggressor-tenant", shedding=True)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_overload_scenarios_are_registered():
    for name in ("flash-crowd", "aggressor-tenant", "slow-client"):
        # open-loop entries: goodput windows, and shedding-off to price against
        assert SCENARIOS[name].windows is not None
        assert SCENARIOS[name].reference({"seed": 1})["shedding"] is False


# ---------------------------------------------------------------------------
# flash crowd: the goodput floor
# ---------------------------------------------------------------------------


def test_flash_crowd_with_shedding_holds_the_goodput_floor(flash_on):
    report = flash_on
    assert report.ok, report.violations
    assert report.qos_enabled
    assert report.scenario == "flash-crowd"
    # ISSUE 8 contract: in-SLO goodput during the sustained burst stays
    # at >= 70% of the pre-burst level
    assert report.pre_burst_mops > 0.0
    assert report.goodput_ratio >= 0.7
    # no acked write may be lost to shedding (nacked ops are either
    # retried within budget or *rejected before acking*)
    assert report.ops_lost == 0
    # the protection actually engaged: requests were shed and the
    # clients saw RESP_RETRY_AFTER nacks
    assert report.shed > 0
    assert report.retry_after_nacks > 0
    assert report.offered > report.completed
    # p99.9 is recorded for every overload run
    assert report.p999_us > 0.0
    assert report.outcome_row()["p999_us"] == report.p999_us


def test_flash_crowd_without_shedding_collapses(flash_off):
    report = flash_off
    assert not report.qos_enabled
    assert report.shed == 0
    # the unprotected server's in-SLO goodput collapses under the same
    # crowd — this is the control arm that motivates admission control
    assert report.goodput_ratio <= 0.2
    # collapse is a degradation, not an invariant violation: the run
    # itself must still satisfy liveness/accounting checks
    assert report.ok, report.violations


def test_flash_crowd_shedding_beats_no_shedding(flash_on, flash_off):
    assert flash_on.goodput_ratio > 2.0 * max(flash_off.goodput_ratio, 0.1)
    # fingerprints pin the admission decisions, so the arms differ
    assert flash_on.fingerprint != flash_off.fingerprint


def test_flash_crowd_runs_are_deterministic(flash_on):
    again = run_chaos(seed=7, scenario="flash-crowd", shedding=True)
    assert again.fingerprint == flash_on.fingerprint
    assert again.goodput_ratio == flash_on.goodput_ratio
    assert again.offered == flash_on.offered
    assert again.shed == flash_on.shed


def test_flash_crowd_other_seed_still_holds_floor():
    report = run_chaos(seed=11, scenario="flash-crowd", shedding=True)
    assert report.ok, report.violations
    assert report.goodput_ratio >= 0.7
    assert report.ops_lost == 0


# ---------------------------------------------------------------------------
# aggressor tenant: isolation
# ---------------------------------------------------------------------------


def test_aggressor_tenant_victim_keeps_its_tail(aggressor_on):
    report = aggressor_on
    assert report.ok, report.violations
    assert report.qos_enabled
    # tenant 0 is the victim, tenant 1 the aggressor (quota'd + deweighted)
    assert set(report.tenant_p99_us) == {0, 1}
    # ISSUE 8 contract: the well-behaved tenant's p99 stays within 3x of
    # an isolated run (same cluster, no burst)
    isolated = run_chaos(seed=7, scenario="aggressor-tenant", shedding=True, burst=1.0)
    assert isolated.tenant_p99_us[0] > 0.0
    assert report.tenant_p99_us[0] <= 3.0 * isolated.tenant_p99_us[0]
    # while the aggressor is visibly throttled: shed traffic and a far
    # worse tail than the victim's
    assert report.shed > 0
    assert report.tenant_p99_us[1] > 10.0 * report.tenant_p99_us[0]
    # protection keeps useful goodput through the attack
    assert report.goodput_ratio >= 0.6
    assert report.ops_lost == 0


def test_aggressor_tenant_without_quotas_hurts_the_victim(aggressor_on):
    unprotected = run_chaos(seed=7, scenario="aggressor-tenant", shedding=False)
    assert unprotected.ok, unprotected.violations
    # without admission control the victim's tail blows up
    assert unprotected.tenant_p99_us[0] > 3.0 * aggressor_on.tenant_p99_us[0]


# ---------------------------------------------------------------------------
# slow client: head-of-line thundering herd
# ---------------------------------------------------------------------------


def test_slow_client_herd_is_absorbed():
    report = run_chaos(seed=7, scenario="slow-client", shedding=True)
    assert report.ok, report.violations
    assert report.scenario == "slow-client"
    # the released backlog must not dent the other clients' goodput
    assert report.goodput_ratio >= 0.9
    assert report.ops_lost == 0
    assert report.p999_us > 0.0


# ---------------------------------------------------------------------------
# satellite: client.retries_exhausted / client.slots_quarantined counters
# ---------------------------------------------------------------------------


def test_retry_exhaustion_counters_reach_the_registry():
    """Regression: the retry-budget and quarantine paths increment the
    cluster-wide obs counters (they used to be per-client gauges only,
    invisible to metric exports that sum across clients)."""
    cluster = HerdCluster(
        HerdConfig(
            n_server_processes=2,
            window=2,
            retry_timeout_ns=20_000.0,
            retry_budget=1,
        ),
        n_client_machines=2,
        seed=13,
    )
    cluster.sim.metrics = MetricsRegistry(cluster.sim)
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=128))
    cluster.preload(range(128), 32)
    # both counters are registered (at zero) as soon as clients exist
    snap = cluster.sim.metrics.snapshot()
    assert snap["counters"]["client.retries_exhausted"] == 0
    assert snap["counters"]["client.slots_quarantined"] == 0
    # every server response is dropped: the budget of 1 retry drains
    # fast and each abandoned op quarantines its window slot
    cluster.install_faults(FaultPlan(seed=13).drop(src="server", rate=1.0))
    cluster.run(warmup_ns=0, measure_ns=200_000)
    abandoned = sum(c.abandoned for c in cluster.clients)
    quarantined = sum(
        len(c._quarantined[s])
        for c in cluster.clients
        for s in range(cluster.config.n_server_processes)
    )
    assert abandoned > 0
    snap = cluster.sim.metrics.snapshot()
    assert snap["counters"]["client.retries_exhausted"] == abandoned
    assert snap["counters"]["client.slots_quarantined"] == quarantined
    assert quarantined > 0
