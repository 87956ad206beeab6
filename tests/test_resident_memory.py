"""What the simulator keeps resident, gated in bytes.

``peak_rss_mb`` repeats to 0.2 % between runs, but only a subprocess
sees it; these gates count ``tracemalloc`` bytes in-process, so they
repeat to the byte on every Python version CI runs:

* an :class:`Operation` is slotted — four references, no ``__dict__`` —
  and still a frozen dataclass that pickles, copies and ``replace``\\ s;
* a :class:`MicaCache` index holds ``None`` per bucket until the
  bucket's first PUT;
* a :class:`WorkloadStream` refill holds at most 32 KiB of PUT values.
"""

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro.kv import MicaCache
from repro.workloads import Operation, OpType, Workload
from repro.workloads.ycsb import keyhash, keyed_values, value_for


def _traced_bytes(build):
    """(the object ``build()`` returns, bytes it left allocated)."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, allocated


# ---------------------------------------------------------------------------
# Operation
# ---------------------------------------------------------------------------


def test_an_operation_has_no_dict():
    op = Workload().stream(seed=0).next_op()
    assert not hasattr(op, "__dict__")
    assert Operation.__slots__ == ("op", "key", "value", "item")
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.item = 5


@pytest.mark.parametrize("get_fraction", [0.0, 1.0])
def test_an_operation_round_trips_through_pickle_and_copy(get_fraction):
    op = Workload(get_fraction=get_fraction).stream(seed=1).next_op()
    for clone in (
        pickle.loads(pickle.dumps(op)),
        pickle.loads(pickle.dumps(op, protocol=0)),
        copy.copy(op),
        copy.deepcopy(op),
        dataclasses.replace(op),
    ):
        assert type(clone) is Operation
        assert clone == op and hash(clone) == hash(op) and repr(clone) == repr(op)


def test_an_operation_keeps_the_dataclass_repr_eq_and_hash():
    op = Operation(OpType.PUT, b"k" * 16, b"v", item=3)
    assert repr(op) == (
        "Operation(op=<OpType.PUT: 'PUT'>, key=%r, value=b'v', item=3)" % (b"k" * 16,)
    )
    assert hash(op) == hash((OpType.PUT, b"k" * 16, b"v", 3))
    assert op == Operation(op=OpType.PUT, key=b"k" * 16, value=b"v", item=3)
    assert op != Operation(OpType.PUT, b"k" * 16, b"v")
    assert Operation(OpType.GET, b"k" * 16, None).item == -1
    assert [f.name for f in dataclasses.fields(Operation)] == ["op", "key", "value", "item"]


#: tracemalloc bytes per op of a 50 % PUT, 32 B stream, its list slot
#: included: 182 on CPython 3.9 / 3.11 / 3.12 / 3.13 (a ``__dict__`` per
#: op made it 358)
BYTES_PER_OP = 220


def test_a_stream_of_small_ops_stays_within_its_byte_budget():
    next_op = Workload(get_fraction=0.5, value_size=32).stream(seed=2).next_op
    next_op()  # the first refill is not part of the trace's footprint
    ops, allocated = _traced_bytes(lambda: [next_op() for _ in range(10_000)])
    assert sum(op.value is not None for op in ops) > 4_000
    assert allocated / len(ops) <= BYTES_PER_OP


# ---------------------------------------------------------------------------
# MicaCache: a lazily filled index
# ---------------------------------------------------------------------------


def test_an_empty_mica_index_costs_a_pointer_per_bucket():
    # 131 072 buckets: 1.0 MiB of pointers (an empty list each was 8.1 MiB)
    cache, allocated = _traced_bytes(lambda: MicaCache(index_entries=1 << 20))
    assert cache.n_buckets == 1 << 17
    assert allocated <= 1.1 * (1 << 20)


def test_a_mica_bucket_exists_only_after_its_first_put():
    cache = MicaCache(index_entries=64, log_bytes=1 << 12)
    key = keyhash(7)
    bucket = cache._bucket_of(key)
    assert cache.buckets == [None] * cache.n_buckets
    assert cache.get(key) is None and cache.last_op_accesses == 1
    assert not cache.delete(key)
    assert list(cache.items()) == []
    assert cache.buckets == [None] * cache.n_buckets
    assert cache.put(key, b"v")
    assert cache.buckets[bucket] == [(key, 0)]
    assert sum(b is not None for b in cache.buckets) == 1
    assert cache.delete(key)
    assert cache.buckets[bucket] == [] and cache.get(key) is None


# ---------------------------------------------------------------------------
# WorkloadStream: byte-bounded refills
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value_size,batch", [(0, 256), (32, 256), (128, 256), (129, 254), (1000, 32), (1024, 32)]
)
def test_a_refill_holds_at_most_32_kib_of_put_values(value_size, batch):
    stream = Workload(get_fraction=0.0, value_size=value_size).stream(seed=4)
    assert stream.BATCH == batch
    for _ in range(3 * batch):
        stream.next_op()
        assert sum(len(op.value) for op in stream._ops) <= 32 * 1024


def test_keyed_values_are_the_scalar_keys_and_values():
    items = list(range(600)) + [1 << 40, (1 << 63) - 1]
    for size in (0, 1, 8, 33, 1000):
        assert list(keyed_values(items, size)) == [
            (keyhash(item), value_for(item, size)) for item in items
        ]
