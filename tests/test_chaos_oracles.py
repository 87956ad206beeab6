"""Each ``run_chaos`` oracle can fire, and metrics leave a run alone.

Every test plants one fault by monkeypatch — a corrupted MICA put, a
double-counted completion, a backup that acks what it never stores, a
recovery that never happens — and asserts the violation text of the
oracle that must catch it.  Were that oracle's body ``return []``, its
test would fail: a green chaos run means something only if each check
is known to go red on the fault it names.
"""

import pytest

import repro.herd.client as herd_client
from repro.faults import FaultPlan, run_chaos
from repro.ha.replication import ReplicaRole
from repro.herd.server import HerdServerProcess
from repro.kv.mica import MicaCache
from repro.obs import capture
from repro.workloads.ycsb import OpType, keyhash

SEED = 3


def _quiet(**kwargs):
    """A small classic run with no injected fault: what fires is the plant."""
    return run_chaos(
        seed=SEED, horizon_ns=100_000.0, n_clients=4, n_items=64,
        plan=FaultPlan(seed=SEED), **kwargs
    )


def test_the_quiet_run_is_clean():
    assert _quiet().violations == []


@pytest.fixture
def corrupted_item(monkeypatch):
    """Every MICA put of item 5, the preload's included, stores its
    first byte flipped."""
    victim = keyhash(5)
    put = MicaCache.put

    def corrupting_put(self, key, value):
        if key == victim:
            value = bytes([value[0] ^ 0xFF]) + value[1:]
        return put(self, key, value)

    monkeypatch.setattr(MicaCache, "put", corrupting_put)


def test_a_get_of_wrong_bytes_is_a_violation(corrupted_item):
    violations = _quiet().violations
    assert any(v.startswith("GET returned wrong bytes for item 5 ") for v in violations)


def test_a_diverged_store_entry_is_a_violation(corrupted_item):
    assert "store divergence for item 5 on server 0" in _quiet().violations


def _after_first_completion(monkeypatch, plant):
    """Run ``plant(client)`` once, right after client 0's first completion."""
    absorb = herd_client.HerdClientProcess._absorb

    def absorb_then_plant(self, cqe):
        before = self.completed
        absorb(self, cqe)
        if self.client_id == 0 and before == 0 and self.completed == 1:
            plant(self)

    monkeypatch.setattr(herd_client.HerdClientProcess, "_absorb", absorb_then_plant)


def test_a_double_counted_completion_breaks_the_accounting(monkeypatch):
    def double_count(client):
        client.completed += 1

    _after_first_completion(monkeypatch, double_count)
    violations = _quiet().violations
    assert any(v.startswith("client 0 accounting broken: ") for v in violations)


def test_a_leaked_window_slot_breaks_the_slot_accounting(monkeypatch):
    def leak(client):
        client._slot_free[0].pop()

    _after_first_completion(monkeypatch, leak)
    assert (
        "client 0 slot accounting leaked at server 0: 3 free + quarantined of 4"
        in _quiet().violations
    )


def test_a_failed_put_response_is_counted(monkeypatch):
    decode = herd_client.decode_response
    failed = []

    def fail_the_first_put(kind, payload):
        success, value = decode(kind, payload)
        if kind is OpType.PUT and not failed:
            failed.append(True)
            return False, value
        return success, value

    monkeypatch.setattr(herd_client, "decode_response", fail_the_first_put)
    violations = _quiet().violations
    assert any(v.endswith(" saw 1 failed responses") for v in violations)


def test_a_backup_that_acks_without_storing_loses_acked_writes(monkeypatch):
    """Under kill-primary the promoted backup's store lacks every write
    it acked, so the final state misses acked writes."""
    apply = ReplicaRole._apply

    def ack_without_storing(self, *args):
        store = self.server.store
        store.put = lambda key, value: True
        try:
            apply(self, *args)
        finally:
            del store.put

    monkeypatch.setattr(ReplicaRole, "_apply", ack_without_storing)
    report = run_chaos(seed=11, scenario="kill-primary")
    assert report.ops_lost > 0
    assert "%d acked writes lost across failover" % report.ops_lost in report.violations


def test_a_server_that_never_recovers_is_a_crash_mismatch(monkeypatch):
    monkeypatch.setattr(HerdServerProcess, "recover", lambda self: False)
    plan = FaultPlan(seed=SEED).crash_server(0, at_ns=30_000.0, down_ns=20_000.0)
    report = run_chaos(
        seed=SEED, horizon_ns=100_000.0, drain_ns=100_000.0, n_clients=4,
        n_items=64, plan=plan,
    )
    assert (
        "crash/recovery mismatch: planned 1, crashed 1, recovered 0"
        in report.violations
    )


# ---------------------------------------------------------------------------
# Metrics attached must not change a run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario, gauges",
    [
        (
            "kill-primary",
            [
                "herd.client0.stale_nacks", "herd.client0.replays",
                "herd.client0.failovers", "herd.client0.reroutes",
                "ha.rep0.updates_shipped", "ha.rep0.acks_sent",
                "ha.rep0.catchups_served", "ha.rep0.heartbeats",
                "ha.monitor.promotions", "ha.monitor.lease_misses",
                "ha.monitor.grants",
            ],
        ),
        (
            "flash-crowd",
            [
                "herd.client0.offered", "herd.client0.overflow_dropped",
                "herd.client0.retry_after_nacks", "herd.client0.rejected",
            ],
        ),
        (
            "migrate-under-kill",
            [
                "elastic.coord.map_version", "elastic.coord.done",
                "elastic.coord.aborted",
            ],
        ),
    ],
)
def test_metrics_attached_do_not_change_a_run(scenario, gauges):
    plain = run_chaos(seed=11, scenario=scenario, horizon_ns=150_000.0)
    with capture(metrics=True) as session:
        observed = run_chaos(seed=11, scenario=scenario, horizon_ns=150_000.0)
    assert observed.fingerprint == plain.fingerprint
    (run,) = session.metrics_dict()["runs"]
    assert set(gauges) <= set(run["gauges"])
