"""Constructors that fail loudly, at construction.

Each numeric field accepts exactly its range; anything else — NaN
included, through the ``not (x >= lo)`` guard — raises ``ValueError``
naming the field, instead of failing at the first draw
(``Workload(n_keys=0)``: "empty range for randrange()"), deep in a run
(``EchoConfig(payload_bytes=4097)``: an out-of-region write), or not at
all (``MicaCache(index_entries=0)`` built one bucket; ``QueueConfig``
ran 0 ops with a NaN timeout).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.echo import EchoCluster, EchoConfig
from repro.kv import MicaCache
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
}
#: fields whose lower bound is itself rejected
OPEN_BELOW = {(QueueConfig, "rpc_timeout_ns")}
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
