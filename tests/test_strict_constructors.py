"""Constructors that fail loudly, at construction.

Each numeric field accepts exactly its range; anything else — NaN
included, through the ``not (x >= lo)`` guard — raises ``ValueError``
naming the field, instead of failing at the first draw
(``Workload(n_keys=0)``: "empty range for randrange()"), deep in a run
(``EchoConfig(payload_bytes=4097)``: an out-of-region write), or not at
all (``MicaCache(index_entries=0)`` built one bucket; ``QueueConfig``
ran 0 ops with a NaN timeout; ``TxnConfig(n_keys=2)`` drew three
distinct keys for ever).  The ``FaultPlan`` rules check their own fields
the same way, so a plan rebuilt by ``FaultPlan.from_dict`` from a
replayed artifact is held to what the builder methods accept.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.echo import EchoCluster, EchoConfig
from repro.faults.plan import (
    CrashRule,
    FaultPlan,
    FlapRule,
    LinkRule,
    NicStallRule,
    QpErrorRule,
    RnrRule,
)
from repro.kv import MicaCache
from repro.txn import TxnCluster, TxnConfig
from repro.txn.client import VALUE_TAG_BYTES
from repro.txn.queue import QueueConfig, TxnQueueCluster
from repro.workloads import Workload

INF = float("inf")
#: class -> field -> the closed range it accepts
BOUNDS = {
    Workload: {"n_keys": (1, INF), "value_size": (0, 1024)},
    QueueConfig: {
        "ops_per_client": (1, INF),
        "capacity": (1, INF),
        "rpc_timeout_ns": (0, INF),  # open at 0, below
        "backoff_ns": (0, INF),
    },
    EchoConfig: {
        "window": (1, INF),
        "n_server_processes": (1, INF),
        "payload_bytes": (1, 4096),  # one request slot
        "memory_accesses": (0, INF),
    },
    # against the defaults: 256 keys, 3 a transaction, 2 of them written
    TxnConfig: {
        "n_partitions": (1, INF),
        "n_keys": (3, INF),  # a transaction draws 3 distinct keys
        "keys_per_txn": (2, 256),  # at least the writes, at most the keys
        "writes_per_txn": (0, 3),
        "read_only_fraction": (0, 1),
        "hot_fraction": (0, 1),
        "value_bytes": (VALUE_TAG_BYTES, INF),
        "rpc_timeout_ns": (0, INF),  # open at 0, below
        "backoff_ns": (0, INF),  # open at 0, below
    },
}
#: fields whose lower bound is itself rejected
OPEN_BELOW = {
    (QueueConfig, "rpc_timeout_ns"),
    (TxnConfig, "rpc_timeout_ns"),
    (TxnConfig, "backoff_ns"),
}
FIELDS = [(cls, field) for cls in BOUNDS for field in sorted(BOUNDS[cls])]


@settings(max_examples=400, deadline=None)
@given(
    case=st.sampled_from(FIELDS),
    value=st.one_of(st.integers(-4, 4), st.integers(), st.floats()),
)
def test_configs_accept_exactly_their_ranges(case, value):
    cls, field = case
    lo, hi = BOUNDS[cls][field]
    accepted = lo <= value <= hi and not (case in OPEN_BELOW and value == lo)
    if accepted:
        assert getattr(cls(**{field: value}), field) == value
    else:
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(-(1 << 70), 4096), st.just(float("nan"))))
def test_mica_index_entries_must_be_at_least_one(entries):
    if entries >= 1:
        cache = MicaCache(index_entries=entries, log_bytes=1 << 12)
        assert cache.n_buckets >= entries // MicaCache.SLOTS_PER_BUCKET
    else:
        with pytest.raises(ValueError, match="index_entries"):
            MicaCache(index_entries=entries)


def test_the_smallest_accepted_configs_run():
    op = Workload(n_keys=1).stream(seed=0).next_op()
    assert op.item == 0
    echo = EchoCluster(
        EchoConfig.wr_wr(window=1, n_server_processes=1, payload_bytes=1, inline=False),
        n_clients=1,
        n_client_machines=1,
    ).run(warmup_ns=0, measure_ns=20_000)
    assert echo.ops > 0
    largest = EchoCluster(
        EchoConfig.send_send(payload_bytes=4096, inline=False),
        n_clients=1,
        n_client_machines=1,
    ).run(warmup_ns=0, measure_ns=20_000)
    assert largest.ops > 0
    queue = TxnQueueCluster(
        QueueConfig(ops_per_client=1, capacity=2, backoff_ns=0.0),
        n_clients=2,
        n_client_machines=1,
    ).run()
    assert queue.ok and queue.enqueued == 2
    txn = TxnCluster(
        TxnConfig(n_partitions=1, n_keys=1, keys_per_txn=1, writes_per_txn=1),
        n_clients=2,
        n_client_machines=1,
    ).run(warmup_ns=0.0, measure_ns=20_000.0)
    assert txn.ok and txn.commits > 0


# ---------------------------------------------------------------------------
# FaultPlan rules
# ---------------------------------------------------------------------------

#: rule class -> (a valid instance's fields, field -> the range it accepts)
RULES = {
    LinkRule: (
        dict(kind="drop"),
        {
            "rate": (0, 1),
            "start_ns": (0, INF),
            "end_ns": (0, INF),
            "extra_delay_ns": (0, INF),
            "jitter_ns": (0, INF),
            "copies": (1, INF),
            "dup_delay_ns": (0, INF),
            "tx_mult": (1, INF),
        },
    ),
    NicStallRule: (
        dict(machine="server", engine="ingress", at_ns=0.0, duration_ns=1.0),
        {"at_ns": (0, INF), "duration_ns": (0, INF)},
    ),
    QpErrorRule: (
        dict(machine="cm0", qpn=1, at_ns=0.0),
        {"at_ns": (0, INF), "recover_after_ns": (0, INF)},
    ),
    RnrRule: (
        dict(machine="cm0", rate=0.5),
        {"rate": (0, 1), "start_ns": (0, INF), "end_ns": (0, INF)},
    ),
    CrashRule: (
        dict(server_index=0, at_ns=0.0, down_ns=1.0),
        {"server_index": (0, INF), "at_ns": (0, INF), "down_ns": (0, INF)},
    ),
    FlapRule: (
        dict(machine="cm0", at_ns=0.0, down_ns=1.0),
        {"at_ns": (0, INF), "down_ns": (0, INF)},
    ),
}
RULE_FIELDS = [(cls, field) for cls in RULES for field in sorted(RULES[cls][1])]
#: where each rule class lives in ``FaultPlan.to_dict()``
PLAN_KEY = {
    LinkRule: "link_rules",
    NicStallRule: "nic_stalls",
    QpErrorRule: "qp_errors",
    RnrRule: "rnr_rules",
    CrashRule: "crashes",
    FlapRule: "flaps",
}


@settings(max_examples=400, deadline=None)
@given(
    case=st.sampled_from(RULE_FIELDS),
    value=st.one_of(st.integers(-4, 4), st.floats()),
)
def test_fault_rules_accept_exactly_their_ranges(case, value):
    cls, field = case
    valid, bounds = RULES[cls]
    lo, hi = bounds[field]
    if lo <= value <= hi:
        assert getattr(cls(**dict(valid, **{field: value})), field) == value
    else:
        with pytest.raises(ValueError, match=field):
            cls(**dict(valid, **{field: value}))


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(RULE_FIELDS),
    value=st.sampled_from([math.nan, -1, -1e-9, 1.5, 0.5]),
)
def test_from_dict_rejects_what_the_builders_reject(case, value):
    """A replayed artifact cannot smuggle in a rule no builder makes."""
    cls, field = case
    valid, bounds = RULES[cls]
    lo, hi = bounds[field]
    data = FaultPlan(seed=3).to_dict()
    data[PLAN_KEY[cls]] = [dict(valid, **{field: value})]
    if lo <= value <= hi:
        rule = getattr(FaultPlan.from_dict(data), PLAN_KEY[cls])[0]
        assert getattr(rule, field) == value
    else:
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_dict(data)


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("nic_stalls", dict(machine="s", engine="sideways", at_ns=0, duration_ns=1), "engine"),
        ("link_rules", dict(kind="vanish"), "kind"),
        ("crashes", dict(server_index=-1, at_ns=0, down_ns=1), "server_index"),
    ],
)
def test_from_dict_rejects_unknown_names_and_negative_indexes(key, raw, message):
    data = FaultPlan().to_dict()
    data[key] = [raw]
    with pytest.raises(ValueError, match=message):
        FaultPlan.from_dict(data)


#: one NaN-able time per builder method
BUILDERS = {
    "drop": lambda plan, t: plan.drop(start_ns=t),
    "corrupt": lambda plan, t: plan.corrupt(end_ns=t),
    "delay": lambda plan, t: plan.delay(t),
    "reorder": lambda plan, t: plan.reorder(t),
    "duplicate": lambda plan, t: plan.duplicate(dup_delay_ns=t),
    "degrade": lambda plan, t: plan.degrade(latency_add_ns=t),
    "rnr": lambda plan, t: plan.rnr("cm0", rate=0.5, start_ns=t),
    "nic_stall": lambda plan, t: plan.nic_stall("server", "egress", t, 1.0),
    "qp_error": lambda plan, t: plan.qp_error("cm0", 1, 0.0, recover_after_ns=t),
    "crash_server": lambda plan, t: plan.crash_server(0, at_ns=t, down_ns=1.0),
    "flap_link": lambda plan, t: plan.flap_link("cm0", at_ns=0.0, down_ns=t),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builders_reject_nan_times(builder):
    plan = FaultPlan()
    with pytest.raises(ValueError, match="must be >= 0"):
        BUILDERS[builder](plan, math.nan)
    assert plan.empty  # nothing half-added
    BUILDERS[builder](plan, 1.0)
    assert not plan.empty


def test_clamped_empty_windows_stay_legal_and_round_trip():
    plan = FaultPlan(seed=2).drop(start_ns=5_000.0).rnr("cm0", rate=0.5, start_ns=9e3)
    plan.flap_link("cm0", at_ns=8_000.0, down_ns=1_000.0)
    clamped = plan.clamped(1_000.0)
    assert [r.end_ns for r in clamped.link_rules] == [1_000.0, 1_000.0, 1_000.0]
    assert clamped.flaps[0].down_ns == 0.0
    assert FaultPlan.from_dict(clamped.to_dict()) == clamped
