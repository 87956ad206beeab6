"""The FaultPlan DSL, named RNG streams, and config validation."""

from dataclasses import replace

import pytest

from repro.faults import FaultPlan, child_rng, derive_seed
from repro.faults.plan import DROP
from repro.herd import HerdConfig
from repro.nemesis.schedule import RANDOMIZED_KIND_POOL, generate


# ---------------------------------------------------------------------------
# Named child RNG streams
# ---------------------------------------------------------------------------


def test_derive_seed_is_stable_and_named():
    assert derive_seed(42, "faults.link") == derive_seed(42, "faults.link")
    assert derive_seed(42, "faults.link") != derive_seed(42, "faults.rnr")
    assert derive_seed(42, "faults.link") != derive_seed(43, "faults.link")
    assert 0 <= derive_seed(0, "x") < 2 ** 64


def test_child_rng_streams_are_independent():
    a = child_rng(7, "a")
    b = child_rng(7, "b")
    draws_a = [a.random() for _ in range(10)]
    # Interleaving draws from b must not change a's future draws.
    a2 = child_rng(7, "a")
    b2 = child_rng(7, "b")
    interleaved = []
    for _ in range(10):
        interleaved.append(a2.random())
        b2.random()
    assert draws_a == interleaved


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def test_builders_chain_and_validate():
    plan = FaultPlan(seed=1).drop(rate=0.5).corrupt(rate=0.1).duplicate(rate=0.2)
    assert len(plan.link_rules) == 3
    with pytest.raises(ValueError):
        plan.drop(rate=1.5)
    with pytest.raises(ValueError):
        plan.duplicate(copies=0)
    with pytest.raises(ValueError):
        plan.delay(-1.0)
    with pytest.raises(ValueError):
        plan.nic_stall("server", engine="sideways", at_ns=0, duration_ns=1)
    with pytest.raises(ValueError):
        plan.crash_server(-1, at_ns=0, down_ns=1)


def test_empty_property():
    assert FaultPlan().empty
    assert not FaultPlan().drop(rate=0.1).empty


def test_rule_matching_by_direction_kind_and_window():
    plan = FaultPlan().drop(
        src="a", dst="b", rate=1.0, start_ns=100.0, end_ns=200.0, packet_kind="ACK"
    )
    (rule,) = plan.link_rules
    assert rule.matches("a", "b", "ACK", 150.0)
    assert not rule.matches("a", "b", "ACK", 99.0)   # before the window
    assert not rule.matches("a", "b", "ACK", 200.0)  # end is exclusive
    assert not rule.matches("x", "b", "ACK", 150.0)  # wrong source
    assert not rule.matches("a", "b", "WRITE", 150.0)  # wrong packet kind


def test_flap_is_sugar_for_two_windowed_drops():
    plan = FaultPlan().flap_link("cm1", at_ns=1_000.0, down_ns=500.0)
    drops = [r for r in plan.link_rules if r.kind == DROP]
    assert len(drops) == 2
    assert {r.src for r in drops} == {"cm1", "*"}
    assert {r.dst for r in drops} == {"cm1", "*"}
    assert all(r.start_ns == 1_000.0 and r.end_ns == 1_500.0 for r in drops)
    assert all(r.tag == "flap" for r in drops)


def test_describe_lists_every_rule():
    plan = (
        FaultPlan(seed=3)
        .drop(dst="server", rate=0.02)
        .nic_stall("server", engine="ingress", at_ns=10.0, duration_ns=5.0)
        .crash_server(1, at_ns=100.0, down_ns=50.0)
    )
    text = plan.describe()
    assert "seed=3" in text
    assert "drop" in text and "nic-stall" in text and "crash" in text


def test_clamped_closes_open_windows():
    plan = FaultPlan().drop(rate=0.1).rnr("cm0", rate=0.5)
    clamped = plan.clamped(1_000.0)
    assert all(r.end_ns == 1_000.0 for r in clamped.link_rules)
    assert all(r.end_ns == 1_000.0 for r in clamped.rnr_rules)
    # The original is untouched.
    assert all(r.end_ns > 1_000.0 for r in plan.link_rules)


def test_randomized_plans_are_deterministic():
    a = FaultPlan.randomized(9, 100_000.0, n_server_processes=4, rnr_machine="cm0")
    b = FaultPlan.randomized(9, 100_000.0, n_server_processes=4, rnr_machine="cm0")
    assert a.link_rules == b.link_rules
    assert a.nic_stalls == b.nic_stalls
    assert a.rnr_rules == b.rnr_rules
    assert a.crashes == b.crashes
    c = FaultPlan.randomized(10, 100_000.0, n_server_processes=4, rnr_machine="cm0")
    assert c.link_rules != a.link_rules


def test_randomized_crash_needs_a_sibling():
    alone = FaultPlan.randomized(1, 100_000.0, n_server_processes=1)
    assert not alone.crashes
    many = FaultPlan.randomized(1, 100_000.0, n_server_processes=4)
    (crash,) = many.crashes
    assert 0 <= crash.server_index < 4
    assert crash.at_ns + crash.down_ns < 100_000.0


def _plan_with_every_rule_type() -> FaultPlan:
    """One plan holding every rule type the DSL can express."""
    return (
        FaultPlan(seed=5)
        .drop(src="cm0", rate=0.1, start_ns=0.0, end_ns=40.0)
        .corrupt(rate=0.05, start_ns=0.0, end_ns=40.0)
        .duplicate(rate=0.1, copies=2, dup_delay_ns=100.0)
        .delay(400.0, rate=0.3)
        .reorder(300.0, rate=0.2)
        .degrade(src="server", latency_add_ns=500.0, rate_mult=0.5,
                 start_ns=10.0, end_ns=20.0)
        .partition_oneway("cm0", "server", end_ns=50.0)
        .lose_heartbeats("rep1", rate=0.9, start_ns=5.0, end_ns=25.0)
        .nic_stall("server", engine="egress", at_ns=1.0, duration_ns=2.0)
        .qp_error("cm1", qpn=3, at_ns=4.0, recover_after_ns=6.0)
        .rnr("cm3", rate=0.5, end_ns=9.0)
        .crash_server(0, at_ns=7.0, down_ns=8.0)
        .flap_link("cm2", at_ns=30.0, down_ns=8.0)
    )


def test_describe_covers_every_rule_type():
    """Satellite audit: every rule type renders exactly once, with its
    per-kind parameters, and flap sugar drops never double-render."""
    plan = _plan_with_every_rule_type()
    lines = plan.describe().splitlines()
    assert lines[0] == "FaultPlan(seed=5)"
    # One line per logical fault: 8 non-flap link rules + 1 stall +
    # 1 qp error + 1 rnr + 1 crash + 1 flap.
    assert len(lines) == 1 + 13
    body = "\n".join(lines[1:])
    assert "drop        cm0->* rate=0.1 during [0, 40) ns" in body
    assert "corrupt" in body
    assert "duplicate   *->* rate=0.1 x2 every 100 ns" in body
    assert "delay       *->* rate=0.3 +400 ns" in body
    assert "reorder     *->* rate=0.2 jitter<300 ns" in body
    assert "degrade     server->* rate=1 tx x2 +500 ns during [10, 20) ns" in body
    assert "partition1w cm0->server rate=1 during [0, 50) ns" in body
    assert "hb_loss     rep1->monitor rate=0.9 kind=SEND ctrl=4 during [5, 25) ns" in body
    assert "nic-stall   server.egress at 1 ns for 2 ns" in body
    assert "qp-error    cm1 qp3 at 4 ns recover +6 ns" in body
    assert "rnr         cm3 rate=0.5 during [0, 9) ns" in body
    assert "crash       server 0 at 7 ns, down 8 ns" in body
    assert "flap        cm2 at 30 ns, down 8 ns" in body
    # The flap renders from its record, not from its two sugar drops.
    assert body.count("flap") == 1


def test_describe_omits_recover_when_qp_error_is_permanent():
    text = FaultPlan().qp_error("cm0", qpn=1, at_ns=5.0).describe()
    assert "qp-error    cm0 qp1 at 5 ns" in text
    assert "recover" not in text


def test_clamped_audits_every_rule_type():
    """Satellite audit: clamping closes every windowed rule type, leaves
    instantaneous device rules alone, and keeps flap records in sync
    with their sugar drops."""
    plan = _plan_with_every_rule_type()
    clamped = plan.clamped(15.0)
    # Every link rule's window (including open-ended and flap sugar)
    # now ends at or before the clamp.
    assert all(r.end_ns <= 15.0 for r in clamped.link_rules)
    assert all(r.end_ns <= 15.0 for r in clamped.rnr_rules)
    # Instantaneous device/process events are not windows: untouched.
    assert clamped.nic_stalls == plan.nic_stalls
    assert clamped.qp_errors == plan.qp_errors
    assert clamped.crashes == plan.crashes
    # The flap at 30 ns starts after the clamp: its downtime collapses
    # to zero (never negative), matching its clamped sugar drops.
    (flap,) = clamped.flaps
    assert flap.at_ns == 30.0 and flap.down_ns == 0.0
    # The original plan is untouched throughout.
    assert plan.flaps[0].down_ns == 8.0
    assert any(r.end_ns > 15.0 for r in plan.link_rules)


def test_clamped_preserves_closed_windows_and_serializes():
    plan = _plan_with_every_rule_type()
    clamped = plan.clamped(1_000.0)
    # Windows already inside the clamp are byte-identical; only the
    # open-ended ones close.
    for before, after in zip(plan.link_rules, clamped.link_rules):
        assert after == (before if before.end_ns <= 1_000.0 else
                         replace(before, end_ns=1_000.0))
    assert clamped.flaps == plan.flaps
    # clamped() output round-trips through the artifact serializer.
    assert FaultPlan.from_dict(clamped.to_dict()).to_dict() == clamped.to_dict()


def test_plan_with_only_flap_records_is_not_empty():
    # A plan rebuilt field-by-field may carry flap records without
    # their sugar drops; it must not read as empty.
    plan = FaultPlan()
    plan.flaps = list(FaultPlan().flap_link("cm0", 1.0, 2.0).flaps)
    assert not plan.empty


# ---------------------------------------------------------------------------
# The randomized kind pool (nemesis vocabulary)
# ---------------------------------------------------------------------------


def test_randomized_kind_pool_covers_the_full_wire_vocabulary():
    """The pool the nemesis's kind-aimed drops draw from includes the
    transaction dataplanes' atomic packets."""
    assert RANDOMIZED_KIND_POOL == (
        "WRITE", "SEND", "READ_REQ", "READ_RESP", "ACK",
        "ATOMIC_REQ", "ATOMIC_RESP",
    )


def test_nemesis_kind_drops_can_aim_at_atomics():
    # Seed pin: this schedule's kind-aimed drops hit both atomic packet
    # kinds, proving the pool extension is reachable (not just declared).
    plan = generate(25, "txn-onesided").plan
    kinds = {r.packet_kind for r in plan.link_rules if r.packet_kind}
    assert {"ATOMIC_REQ", "ATOMIC_RESP"} <= kinds


# ---------------------------------------------------------------------------
# HerdConfig validation
# ---------------------------------------------------------------------------


def test_retry_timeout_accepts_none_and_rejects_nonpositive():
    assert HerdConfig(retry_timeout_ns=None).retry_timeout_ns is None
    assert HerdConfig(retry_timeout_ns=1e4).retry_timeout_ns == 1e4
    with pytest.raises(ValueError):
        HerdConfig(retry_timeout_ns=0.0)
    with pytest.raises(ValueError):
        HerdConfig(retry_timeout_ns=-5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_server_processes=0),
        dict(window=0),
        dict(window=256),  # the slot-id byte caps the window at 255
        dict(index_entries=0),
        dict(log_bytes=0),
        dict(request_transport="RC"),
        dict(retry_budget=0),
        dict(min_retry_timeout_ns=0.0),
        dict(replication_factor=0),
        dict(replication_factor=9),
        dict(ack_policy="quorum"),
        dict(lease_us=0.0),
        dict(heartbeat_us=0.0),
        dict(lease_us=2.0, heartbeat_us=1.0),  # one lost heartbeat = failover
    ],
)
def test_config_rejects_invalid_numeric_fields(kwargs):
    with pytest.raises(ValueError):
        HerdConfig(**kwargs)


def test_config_accepts_the_resilience_knobs():
    cfg = HerdConfig(
        retry_timeout_ns=2e4,
        retry_budget=3,
        adaptive_retry=True,
        min_retry_timeout_ns=1e4,
    )
    assert cfg.retry_budget == 3 and cfg.adaptive_retry
