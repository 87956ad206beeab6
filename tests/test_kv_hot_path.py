"""The KV indexes' hot path: same bytes, same answers, fewer calls.

Three nets under ``repro.kv``'s probe path (docs/PERF.md row 5):

* ``hash_key`` against the chunk-by-chunk ``mix64`` fold it was written
  as, which lives on only here as the reference;
* sha256 digests of every byte a table owns, every GET answer and the
  ``(last_op_accesses, last_op_probes)`` trace after a fixed stream of
  5 000 PUT / GET / DELETE operations, recorded before the probe path
  was touched — once more with the table inside a ``MemoryRegion.buf``
  (an ``mmap``), as Pilaf and FaRM lend it;
* ``sys.setprofile`` budgets of Python-level calls and ``hash_key``
  calls per steady-state operation (wall clock cannot gate on a shared
  VM; counts repeat to the unit — ROADMAP 7(b)).
"""

import hashlib
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv import CuckooTable, HopscotchTable, MicaCache
from repro.kv.cuckoo import CuckooFullError
from repro.kv.hashing import hash_key, mix64
from repro.kv.hopscotch import HopscotchFullError
from repro.verbs.mr import MrTable

# ---------------------------------------------------------------------------
# hash_key == the fold it replaced
# ---------------------------------------------------------------------------


def _reference_hash_key(key, salt=0):
    h = mix64(salt * 0x9E3779B97F4A7C15)
    for offset in range(0, len(key), 8):
        h = mix64(h ^ int.from_bytes(key[offset : offset + 8], "little"))
    return h


_SALTS = list(range(8)) + [8, 1 << 70, -1, -(1 << 65) - 3]


def test_hash_key_equals_reference_for_every_length_and_salt():
    rng = Random(23)
    for length in range(41):
        for key in (bytes(length), b"\xff" * length, rng.randbytes(length)):
            for salt in _SALTS:
                assert hash_key(key, salt) == _reference_hash_key(key, salt)
    assert hash_key(b"k" * 16) == _reference_hash_key(b"k" * 16, 0)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40), st.one_of(st.sampled_from(_SALTS), st.integers()))
def test_hash_key_equals_reference(key, salt):
    assert hash_key(key, salt) == _reference_hash_key(key, salt)


# ---------------------------------------------------------------------------
# pinned bytes, answers and access traces
# ---------------------------------------------------------------------------


def _stream(seed, n_keys, value_max, n_ops=5000):
    """A fixed PUT / GET / DELETE stream; one key in seven is shorter
    than 16 bytes (the tables pad it)."""
    rng = Random(seed)
    for _ in range(n_ops):
        i = rng.randrange(n_keys)
        key = b"s%d" % i if i % 7 == 0 else b"key-%012d" % i
        draw = rng.random()
        if draw < 0.45:
            yield "put", key, rng.randbytes(rng.randrange(1, value_max + 1))
        elif draw < 0.9:
            yield "get", key, None
        else:
            yield "delete", key, None


def _apply(table, ops, buffers):
    """sha256 over the answers, the access trace and ``buffers``.

    A relocating cuckoo PUT enters the trace as ``2 + its own kicks`` —
    what ``last_op_accesses`` must say (the parent said ``2 + lifetime
    kicks``; tests/test_kv_cuckoo.py pins the fix)."""
    digest = hashlib.sha256()
    for verb, key, value in ops:
        kicks = getattr(table, "kicks", 0)
        try:
            if verb == "put":
                answer = table.put(key, value)
            elif verb == "get":
                answer = table.get(key)
            else:
                answer = table.delete(key)
        except (CuckooFullError, HopscotchFullError) as exc:
            digest.update(type(exc).__name__.encode())
            continue
        accesses = table.last_op_accesses
        kicked = getattr(table, "kicks", 0) - kicks
        if kicked:
            accesses = 2 + kicked
        digest.update(
            b"%r|%d|%d;" % (answer, accesses, getattr(table, "last_op_probes", 0))
        )
    for buf in buffers(table):
        digest.update(bytes(buf))
    return digest.hexdigest()


def _lent(n_bytes):
    """A registered region's buffer, as the Pilaf / FaRM servers lend it."""
    return MrTable().register(n_bytes).buf


def _cuckoo(lend):
    table = CuckooTable(
        n_buckets=512, extent_bytes=1 << 17, seed=5,
        table_buffer=_lent(512 * 32) if lend else None,
        extent_buffer=_lent(1 << 17) if lend else None,
    )
    return table, _stream(101, n_keys=400, value_max=40)


def _hopscotch_inline(lend):
    table = HopscotchTable(
        n_slots=512, value_capacity=32,
        table_buffer=_lent(512 * 52) if lend else None,
    )
    return table, _stream(102, n_keys=470, value_max=32)


def _hopscotch_var(lend):
    table = HopscotchTable(
        n_slots=512, inline=False, extent_bytes=1 << 17,
        table_buffer=_lent(512 * 24) if lend else None,
        extent_buffer=_lent(1 << 17) if lend else None,
    )
    return table, _stream(103, n_keys=470, value_max=60)


def _mica(_lend):
    # small enough that the log wraps and the index evicts
    return MicaCache(index_entries=256, log_bytes=1 << 14), _stream(
        104, n_keys=300, value_max=120
    )


def _table_and_extents(table):
    return table.table, table.extents


def _log_and_index(cache):
    return cache.log.buf, repr((cache.buckets, cache.log.tail)).encode()


#: recorded at the parent commit of row 5 (3e0e6a2), before any edit
PINNED = {
    "cuckoo": (
        _cuckoo, _table_and_extents,
        "f2ed1231be40f14670b01f00ed42ebd8dbc84654dced8f729fdba9e452ae1d88",
    ),
    "hopscotch-inline": (
        _hopscotch_inline, _table_and_extents,
        "7c336e29d2d0f8e6e93030ef94d93892ce16e2afb9fa6aec83109e0bb39bec0c",
    ),
    "hopscotch-var": (
        _hopscotch_var, _table_and_extents,
        "3ab288608f280ed3faa9db42374a08cc077622371da15a4bea467f9c2d1af564",
    ),
    "mica": (
        _mica, _log_and_index,
        "9dd13d43bef2ab15233b4269a80846d252571782c9b92924cdbfac139838856b",
    ),
}


@pytest.mark.parametrize(
    "name,lend",
    # MicaCache owns its log: nothing to lend
    [
        (name, lend)
        for name in sorted(PINNED)
        for lend in (False, True)
        if not (lend and name == "mica")
    ],
)
def test_bytes_answers_and_access_trace_are_pinned(name, lend):
    make, buffers, expected = PINNED[name]
    table, ops = make(lend)
    assert _apply(table, ops, buffers) == expected


def test_the_pinned_streams_reach_the_slow_paths():
    """The digests above are only a net if the streams relocate,
    displace, wrap and evict."""
    cuckoo, ops = _cuckoo(False)
    _apply(cuckoo, ops, _table_and_extents)
    assert cuckoo.kicks > 20 and cuckoo.average_probes() > 1.3
    for make in (_hopscotch_inline, _hopscotch_var):
        hopscotch, ops = make(False)
        _apply(hopscotch, ops, _table_and_extents)
        assert hopscotch.displacements > 20
    mica, ops = _mica(False)
    _apply(mica, ops, _log_and_index)
    assert mica.log.wraps > 3 and mica.lost_to_wrap > 20 and mica.index_evictions > 20


# ---------------------------------------------------------------------------
# call budgets per steady-state operation
# ---------------------------------------------------------------------------

_HASH_KEY = hash_key.__code__


def _count(fn):
    """(Python-level calls, ``hash_key`` calls) made by ``fn()``."""
    calls = hashes = 0

    def count(frame, event, _arg):
        nonlocal calls, hashes
        if event == "call":
            calls += 1
            hashes += frame.f_code is _HASH_KEY

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls, hashes


def _key(i):
    return b"key-%012d" % i


def _cuckoo_with_key_on_candidate(which):
    """A cuckoo table and a key resident in its ``which``-th candidate."""
    table = CuckooTable(n_buckets=1 << 10, seed=1)
    for i in range(600):
        table.put(_key(i), b"v" * 32)
    for i in range(600):
        table.get(_key(i))
        if table.last_op_probes == which:
            return table, _key(i)
    raise AssertionError("no key on candidate %d" % which)


#: (Python-level calls, ``hash_key`` calls) per operation, as ``<=``.
#: Before row 5: cuckoo GET 20 / 22 / 18 calls with 3 ``hash_key`` (and
#: 9 ``mix64``) whichever bucket hit, cuckoo overwrite 20 with 3,
#: hopscotch GET / PUT 4 + one per slot scanned, MICA GET 7 / PUT 3.
BUDGET = {
    # get, hash_key, read_value, checksum64
    "cuckoo GET, first candidate": (4, 1),
    "cuckoo GET, third candidate": (6, 3),
    "cuckoo GET, miss": (4, 3),
    # put, hash_key, _alloc_value, _store_bucket, 2 x checksum64
    "cuckoo overwrite PUT, first candidate": (6, 1),
    # get, _find, home_of, _inline_value_at
    "hopscotch GET": (4, 0),
    # put, _find, home_of, _write_item, _store
    "hopscotch overwrite PUT": (5, 0),
    # get, _bucket_of, CircularLog.read
    "MICA GET": (3, 0),
    # put, _bucket_of, CircularLog.append
    "MICA overwrite PUT": (3, 0),
}


def _budgeted_ops():
    first, first_key = _cuckoo_with_key_on_candidate(1)
    third, third_key = _cuckoo_with_key_on_candidate(3)
    hopscotch = HopscotchTable(n_slots=1 << 10, value_capacity=32)
    mica = MicaCache(index_entries=1 << 12, log_bytes=1 << 16)
    for i in range(600):
        hopscotch.put(_key(i), b"v" * 32)
        mica.put(_key(i), b"v" * 32)
    key, absent, value = _key(7), _key(10_000), b"w" * 32
    # a key three slots or more from its home: the scan decodes each
    hopped = next(
        _key(i) for i in range(600)
        if hopscotch._distance(hopscotch.home_of(_key(i)), hopscotch._find(_key(i))[0]) >= 3
    )
    return {
        "cuckoo GET, first candidate": lambda: first.get(first_key),
        "cuckoo GET, third candidate": lambda: third.get(third_key),
        "cuckoo GET, miss": lambda: first.get(absent),
        "cuckoo overwrite PUT, first candidate": lambda: first.put(first_key, value),
        "hopscotch GET": lambda: hopscotch.get(hopped),
        "hopscotch overwrite PUT": lambda: hopscotch.put(hopped, value),
        "MICA GET": lambda: mica.get(key),
        "MICA overwrite PUT": lambda: mica.put(key, value),
    }


def test_budget_names_every_op():
    assert set(_budgeted_ops()) == set(BUDGET)


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_steady_state_call_budget(name):
    op = _budgeted_ops()[name]
    op()  # steady state: the second call is the one counted
    calls, hashes = _count(op)
    max_calls, max_hashes = BUDGET[name]
    assert calls - 1 <= max_calls  # the lambda is one of the calls counted
    assert hashes <= max_hashes
