"""Tests for the MICA-style cache (HERD's backend)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.mica import CircularLog, MicaCache


def key(i):
    return ("key-%06d" % i).encode().ljust(16, b"\x00")


# ---------------------------------------------------------------------------
# CircularLog
# ---------------------------------------------------------------------------


def test_log_append_and_read():
    log = CircularLog(1024)
    pos = log.append(b"k1", b"v1")
    assert log.read(pos) == (b"k1", b"v1")


def test_log_positions_are_monotonic():
    log = CircularLog(1024)
    p1 = log.append(b"a", b"1")
    p2 = log.append(b"b", b"2")
    assert p2 > p1


def test_log_wrap_overwrites_oldest():
    log = CircularLog(64)
    first = log.append(b"k" * 8, b"v" * 21)
    positions = [log.append(b"K" * 8, b"V" * 21) for _ in range(3)]
    assert log.read(first) is None          # overwritten
    assert log.read(positions[-1]) is not None
    assert log.wraps >= 1


def test_log_wrapped_entry_reads_back_correctly():
    """An entry split across the physical end must reassemble."""
    log = CircularLog(50)
    log.append(b"x" * 10, b"y" * 10)  # tail at 24
    pos = log.append(b"A" * 10, b"B" * 30)  # 44 bytes, wraps
    assert log.read(pos) == (b"A" * 10, b"B" * 30)


@pytest.mark.parametrize(
    "lead, what",
    [(45, "header"), (44, "header"), (43, "header"), (38, "key"), (35, "value"), (31, "value")],
)
def test_log_entry_straddling_the_wrap_reads_back(lead, what):
    """The header (one, two or three of its four bytes before the
    physical end), the key, and the value (from its first byte, or
    part-way) may each cross the end."""
    log = CircularLog(50)
    log.append(b"", b"p" * lead)  # tail at lead + 4
    pos = log.append(b"K" * 7, b"V" * 9)  # 20 bytes
    offset = pos % log.capacity
    assert (offset + 4 > log.capacity) == (what == "header") and offset + 20 > log.capacity
    assert log.read(pos) == (b"K" * 7, b"V" * 9)
    assert log.wraps == 1
    # and the entry that ends exactly at the physical end does not wrap
    flush = CircularLog(50)
    flush.append(b"", b"p" * 26)
    pos = flush.append(b"K" * 7, b"V" * 9)
    assert flush.tail == 50 and flush.wraps == 0
    assert flush.read(pos) == (b"K" * 7, b"V" * 9)


def test_log_rejects_oversized_entry():
    log = CircularLog(32)
    with pytest.raises(ValueError):
        log.append(b"k" * 16, b"v" * 64)


def test_log_rejects_tiny_capacity():
    with pytest.raises(ValueError):
        CircularLog(4)


def test_alive_is_false_once_the_first_bytes_are_overwritten():
    """``alive`` used to compare the *end* of the range with the
    overwritten zone, so a range whose head was gone still passed."""
    log = CircularLog(64)
    positions = [log.append(b"k" * 4, b"v" * 8) for _ in range(4)]  # 16 B each
    assert positions == [0, 16, 32, 48] and log.tail == 64
    log.append(b"K" * 4, b"V" * 10)  # 18 B: overwrites positions 0..17
    # two of the four header bytes of the entry at 16 are gone
    assert not log.alive(16, 4)
    assert log.read(16) is None
    assert log.alive(18, 4)  # the first byte still intact
    assert log.read(32) == (b"k" * 4, b"v" * 8)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), capacity=st.integers(min_value=16, max_value=160))
def test_log_read_returns_the_appended_pair_or_none(data, capacity):
    """Model: ``read(pos)`` is exactly the pair appended at ``pos`` while
    every byte of it is intact, and ``None`` from the first overwritten
    byte on — never anything else.  Overwriting proceeds from the oldest
    byte, so an entry has lost a byte iff it has lost its first."""
    log = CircularLog(capacity)
    appended = []  # (pos, key, value)
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        room = capacity - log.tail % capacity
        if room >= 4 and data.draw(st.booleans()):
            total = room  # ends exactly at the physical end of the buffer
        else:
            total = data.draw(st.integers(min_value=4, max_value=capacity))
        key_len = data.draw(st.integers(min_value=0, max_value=total - 4))
        fill = bytes([len(appended) % 251 + 1])
        entry_key, value = fill * key_len, fill * (total - 4 - key_len)
        pos = log.append(entry_key, value)
        assert pos == log.tail - total
        appended.append((pos, entry_key, value))
        for old_pos, old_key, old_value in appended:
            overwritten = old_pos < log.tail - capacity
            expected = None if overwritten else (old_key, old_value)
            assert log.read(old_pos) == expected


# ---------------------------------------------------------------------------
# MicaCache
# ---------------------------------------------------------------------------


def test_put_get_roundtrip():
    cache = MicaCache()
    assert cache.put(key(1), b"value-1")
    assert cache.get(key(1)) == b"value-1"


def test_get_missing_returns_none():
    cache = MicaCache()
    assert cache.get(key(42)) is None
    assert cache.misses == 1


def test_put_overwrites():
    cache = MicaCache()
    cache.put(key(1), b"old")
    cache.put(key(1), b"new")
    assert cache.get(key(1)) == b"new"


def test_delete():
    cache = MicaCache()
    cache.put(key(1), b"v")
    assert cache.delete(key(1)) is True
    assert cache.get(key(1)) is None
    assert cache.delete(key(1)) is False


def test_get_costs_at_most_two_accesses():
    """Section 4.1: each GET requires up to two random memory lookups."""
    cache = MicaCache()
    cache.put(key(1), b"v")
    cache.get(key(1))
    assert cache.last_op_accesses == 2
    cache.get(key(999))  # miss in the index: one access
    assert cache.last_op_accesses == 1


def test_put_costs_one_access():
    """Section 4.1: each PUT requires one random memory lookup."""
    cache = MicaCache()
    cache.put(key(1), b"v")
    assert cache.last_op_accesses == 1


def test_lossy_index_evicts_on_full_bucket():
    """The index may evict items on insertion — that is what makes it a
    cache rather than a store."""
    cache = MicaCache(index_entries=MicaCache.SLOTS_PER_BUCKET, log_bytes=1 << 16)
    assert cache.n_buckets == 1
    n = MicaCache.SLOTS_PER_BUCKET + 3
    for i in range(n):
        cache.put(key(i), b"v%d" % i)
    assert cache.index_evictions == 3
    # The newest items survive.
    assert cache.get(key(n - 1)) == b"v%d" % (n - 1)
    assert cache.get(key(0)) is None


def test_log_wrap_invalidates_index_entries():
    """FIFO log eviction: old values disappear when the log wraps and
    the stale index slot is cleaned up on access."""
    cache = MicaCache(index_entries=2 ** 12, log_bytes=256)
    cache.put(key(1), b"a" * 50)
    for i in range(2, 8):
        cache.put(key(i), b"b" * 50)
    assert cache.get(key(1)) is None
    assert cache.lost_to_wrap >= 1


def test_values_up_to_1000_bytes():
    """HERD's maximum item size is 1 KB (Section 4.2)."""
    cache = MicaCache()
    cache.put(key(1), b"x" * 1000)
    assert cache.get(key(1)) == b"x" * 1000


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.one_of(st.none(), st.binary(min_size=1, max_size=32)),  # None: DELETE
        ),
        min_size=1,
        max_size=200,
    )
)
def test_matches_dict_model_when_not_evicting(ops):
    """Property: with ample capacity, MicaCache behaves as a dict."""
    cache = MicaCache(index_entries=2 ** 16, log_bytes=1 << 20)
    model = {}
    for i, value in ops:
        if value is None:
            assert cache.delete(key(i)) == (model.pop(key(i), None) is not None)
        else:
            cache.put(key(i), value)
            model[key(i)] = value
        assert cache.get(key(i)) == model.get(key(i))
    for i in range(51):
        assert cache.get(key(i)) == model.get(key(i))
    assert dict(cache.items()) == model


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
def test_cache_never_returns_wrong_value(ids):
    """Property: even under heavy eviction the cache returns either the
    latest value or nothing — never a stale or foreign value."""
    cache = MicaCache(index_entries=16, log_bytes=512)
    latest = {}
    for i in ids:
        value = b"val-%d-%d" % (i, len(latest))
        cache.put(key(i), value)
        latest[key(i)] = value
    for k, expect in latest.items():
        got = cache.get(k)
        assert got is None or got == expect
