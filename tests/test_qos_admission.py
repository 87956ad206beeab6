"""Tests for the admission-control layer (repro.qos)."""

import pytest

import repro.qos.admission as admission
from repro.qos import PartitionAdmission, QosConfig, QosRuntime, TokenBucket

NAN = float("nan")


# ---------------------------------------------------------------------------
# QosConfig validation
# ---------------------------------------------------------------------------


def test_config_defaults_validate():
    cfg = QosConfig()
    assert cfg.queue_limit == 24


@pytest.mark.parametrize(
    "kwargs",
    [
        {"queue_limit": 0},
        {"codel_target_ns": 0.0},
        {"codel_interval_ns": -1.0},
        {"n_tenants": 0},
        {"n_tenants": 2, "tenant_rates": (1.0,)},
        {"n_tenants": 1, "tenant_rates": (0.0,)},
        {"n_tenants": 2, "tenant_weights": (1.0,)},
        {"n_tenants": 2, "tenant_weights": (1.0, 0.0)},
        {"retry_after_ns": 0.0},
        {"qp_pool": 0},
        # NaN fails every bound
        {"queue_limit": NAN},
        {"codel_target_ns": NAN},
        {"codel_interval_ns": NAN},
        {"n_tenants": NAN},
        {"n_tenants": 1, "tenant_rates": (NAN,)},
        {"n_tenants": 2, "tenant_weights": (1.0, NAN)},
        {"retry_after_ns": NAN},
        {"qp_pool": NAN},
    ],
)
def test_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        QosConfig(**kwargs)


def test_tenant_assignment_is_modulo():
    cfg = QosConfig(n_tenants=3)
    assert [cfg.tenant_of(c) for c in range(6)] == [0, 1, 2, 0, 1, 2]


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------


def test_token_bucket_caps_sustained_rate():
    # 1 op/us = 0.001 ops/ns, depth 4
    bucket = TokenBucket(0.001, 4.0)
    # the initial burst drains the full depth...
    assert sum(bucket.admit(0.0) for _ in range(10)) == 4
    # ...then admission tracks the refill rate: 1 token per us
    admitted = sum(bucket.admit(1000.0 * i) for i in range(1, 11))
    assert admitted == 10
    # hammering between refills gets nothing extra
    assert not bucket.admit(10_000.0)
    assert bucket.admit(11_000.0)


def test_token_bucket_never_exceeds_burst_depth():
    bucket = TokenBucket(0.001, 2.0)
    bucket.admit(0.0)
    # a long idle period refills to the cap, not beyond
    assert sum(bucket.admit(1e9) for _ in range(10)) == 2


# ---------------------------------------------------------------------------
# CoDel sojourn control
# ---------------------------------------------------------------------------


def _partition(**kwargs) -> PartitionAdmission:
    defaults = dict(
        queue_limit=None,
        codel_target_ns=1_000.0,
        codel_interval_ns=10_000.0,
    )
    defaults.update(kwargs)
    runtime = QosRuntime(QosConfig(**defaults), n_partitions=1)
    return runtime.partition(0)


def test_codel_admits_below_target():
    part = _partition()
    for i in range(100):
        assert part.on_request(0, now=100.0 * i, sojourn_ns=500.0, backlog=1) is None


def test_codel_sheds_only_after_a_full_bad_interval():
    part = _partition()
    # sojourn above target, but not yet for a full interval: admit
    assert part.on_request(0, now=0.0, sojourn_ns=5_000.0, backlog=1) is None
    assert part.on_request(0, now=5_000.0, sojourn_ns=5_000.0, backlog=1) is None
    # a full interval (10 us) above target: the dropping state begins
    assert part.on_request(0, now=10_000.0, sojourn_ns=5_000.0, backlog=1) == "slowdown"


def test_codel_shed_cadence_accelerates():
    part = _partition()
    part.on_request(0, now=0.0, sojourn_ns=5_000.0, backlog=1)
    part.on_request(0, now=10_000.0, sojourn_ns=5_000.0, backlog=1)  # 1st shed
    shed_times = []
    t = 10_000.0
    while len(shed_times) < 3 and t < 80_000.0:
        t += 100.0
        if part.on_request(0, now=t, sojourn_ns=5_000.0, backlog=1) == "slowdown":
            shed_times.append(t)
    # interval/sqrt(2) then interval/sqrt(3): gaps shrink as pressure ramps
    gaps = [b - a for a, b in zip([10_000.0] + shed_times, shed_times)]
    assert len(gaps) == 3
    assert gaps[0] > gaps[1] > gaps[2]


def test_codel_recovery_resets_the_controller():
    part = _partition()
    part.on_request(0, now=0.0, sojourn_ns=5_000.0, backlog=1)
    assert part.on_request(0, now=10_000.0, sojourn_ns=5_000.0, backlog=1) == "slowdown"
    # sojourn back under target: dropping state exits immediately
    assert part.on_request(0, now=10_100.0, sojourn_ns=100.0, backlog=1) is None
    # and the interval timer re-arms from scratch
    assert part.on_request(0, now=10_200.0, sojourn_ns=5_000.0, backlog=1) is None
    assert part.on_request(0, now=15_000.0, sojourn_ns=5_000.0, backlog=1) is None


# ---------------------------------------------------------------------------
# queue bound + tenant quotas + fairness
# ---------------------------------------------------------------------------


def test_queue_limit_tail_drops():
    part = _partition(queue_limit=8, codel_target_ns=None)
    assert part.on_request(0, now=0.0, sojourn_ns=0.0, backlog=8) is None
    assert part.on_request(0, now=1.0, sojourn_ns=0.0, backlog=9) == "overflow"


def test_tenant_quota_throttles_only_the_capped_tenant(monkeypatch):
    monkeypatch.setattr(admission, "TENANT_BURST", 2.0)
    part = _partition(
        codel_target_ns=None,
        n_tenants=2,
        tenant_rates=(None, 1.0),  # tenant 1 capped at 1 op/us
    )
    # tenant 1 (odd clients) blows through its bucket
    verdicts = [part.on_request(1, now=10.0 * i, sojourn_ns=0.0, backlog=1)
                for i in range(20)]
    assert verdicts.count("throttled") >= 15
    # tenant 0 (even clients) is untouched at the same instants
    assert all(
        part.on_request(0, now=10.0 * i, sojourn_ns=0.0, backlog=1) is None
        for i in range(20)
    )
    runtime = part.runtime
    assert runtime.shed.get("throttled", 0) >= 15
    assert runtime.tenants[0][1] == 0  # tenant 0 never shed


def test_fair_admission_caps_share_under_backlog(monkeypatch):
    monkeypatch.setattr(admission, "FAIR_SLACK", 2.0)
    part = _partition(
        codel_target_ns=None,
        n_tenants=2,
        tenant_weights=(1.0, 1.0),
    )
    # all traffic from tenant 0 while a backlog exists: its share is
    # capped at weight/total + slack, the rest sheds as "fairness"
    verdicts = [part.on_request(0, now=1.0 * i, sojourn_ns=0.0, backlog=16)
                for i in range(40)]
    assert verdicts.count("fairness") >= 30
    # the quiet tenant still admits freely
    assert part.on_request(1, now=50.0, sojourn_ns=0.0, backlog=16) is None


def test_fairness_idle_when_no_contention():
    part = _partition(
        codel_target_ns=None,
        n_tenants=2,
        tenant_weights=(1.0, 1.0),
    )
    # backlog at/below the threshold (FAIR_QUEUE_THRESHOLD = 4): one tenant may take everything
    assert all(
        part.on_request(0, now=1.0 * i, sojourn_ns=0.0, backlog=4) is None
        for i in range(40)
    )


def test_counter_lines_are_deterministic():
    part = _partition(queue_limit=4, codel_target_ns=None, n_tenants=2)
    for i in range(10):
        part.on_request(i % 2, now=float(i), sojourn_ns=0.0, backlog=10)
    lines = part.runtime.counter_lines()
    assert lines == [
        "qos.shed.overflow 10",
        "qos.tenant0 admitted=0 shed=5",
        "qos.tenant1 admitted=0 shed=5",
    ]
