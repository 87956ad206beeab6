"""Tests for the 3-1 cuckoo table (Pilaf's backend)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.cuckoo import (
    BUCKET_BYTES,
    CuckooFullError,
    CuckooTable,
    checksum64,
)


def key(i):
    return ("ck-%06d" % i).encode().ljust(16, b"\x00")


def test_put_get_roundtrip():
    t = CuckooTable()
    t.put(key(1), b"hello")
    assert t.get(key(1)) == b"hello"


def test_missing_key():
    t = CuckooTable()
    assert t.get(key(5)) is None


def test_overwrite_in_place():
    t = CuckooTable()
    t.put(key(1), b"old")
    t.put(key(1), b"newer")
    assert t.get(key(1)) == b"newer"
    assert t.items == 1


def test_delete():
    t = CuckooTable()
    t.put(key(1), b"v")
    assert t.delete(key(1))
    assert t.get(key(1)) is None
    assert not t.delete(key(1))
    assert t.items == 0


def test_three_candidate_buckets():
    t = CuckooTable()
    buckets = t.buckets_for(key(1))
    assert len(buckets) == CuckooTable.HASHES == 3
    assert all(0 <= b < t.n_buckets for b in buckets)
    # Deterministic.
    assert buckets == t.buckets_for(key(1))


def test_relocation_makes_room():
    """Insertions beyond direct capacity trigger cuckoo kicks."""
    t = CuckooTable(n_buckets=64, seed=3)
    inserted = 0
    try:
        for i in range(48):  # push to 75% load
            t.put(key(i), b"v%d" % i)
            inserted += 1
    except CuckooFullError:
        pass
    assert inserted >= 40
    for i in range(inserted):
        assert t.get(key(i)) == b"v%d" % i
    assert t.kicks > 0


def test_average_probes_near_paper_value():
    """Section 5.1.1: ~1.6 bucket probes per GET at 75% occupancy."""
    t = CuckooTable(n_buckets=1024, seed=1)
    n = int(t.n_buckets * 0.75)
    for i in range(n):
        t.put(key(i), b"v")
    for i in range(n):
        t.get(key(i))
    assert 1.3 <= t.average_probes() <= 2.0


def test_bucket_is_32_bytes():
    """The paper assumes 32-byte buckets for alignment."""
    assert BUCKET_BYTES == 32
    t = CuckooTable()
    offset, length = t.bucket_span(3)
    assert (offset, length) == (96, 32)


def test_bucket_bytes_parse_like_a_remote_client():
    """A Pilaf client READs raw bucket bytes and decodes them."""
    t = CuckooTable()
    t.put(key(7), b"remote-value")
    for index in t.buckets_for(key(7)):
        parsed = CuckooTable.parse_bucket(t.read_bucket(index))
        if parsed is not None and parsed[0] == key(7):
            ptr, vlen = parsed[1], parsed[2]
            assert t.read_value(ptr) == b"remote-value"
            assert vlen == len(b"remote-value")
            return
    pytest.fail("key not found in any candidate bucket")


def test_parse_empty_bucket():
    t = CuckooTable()
    assert CuckooTable.parse_bucket(t.read_bucket(0)) is None


def test_self_verifying_bucket_detects_corruption():
    """The two 64-bit checksums exist so clients can detect torn reads
    of concurrently-updated entries (Section 2.3)."""
    t = CuckooTable()
    t.put(key(1), b"v")
    index = next(
        b for b in t.buckets_for(key(1)) if t.read_bucket(b)[:16] == key(1)
    )
    offset, _ = t.bucket_span(index)
    t.table[offset] ^= 0xFF  # flip bits in the stored key
    with pytest.raises(ValueError):
        CuckooTable.parse_bucket(t.read_bucket(index))


def test_extent_checksum_detects_torn_value():
    t = CuckooTable()
    t.put(key(1), b"important")
    index = next(
        b for b in t.buckets_for(key(1)) if t.read_bucket(b)[:16] == key(1)
    )
    _k, ptr, _vlen = CuckooTable.parse_bucket(t.read_bucket(index))
    t.extents[ptr + 10] ^= 0xFF  # corrupt the value body
    with pytest.raises(ValueError):
        t.read_value(ptr)


def test_checksum64_is_deterministic_and_wide():
    a = checksum64(b"hello")
    assert a == checksum64(b"hello")
    assert a != checksum64(b"hellp")
    assert a > 0xFFFFFFFF or checksum64(b"other") > 0xFFFFFFFF


def test_extent_exhaustion():
    t = CuckooTable(extent_bytes=64)
    with pytest.raises(CuckooFullError):
        for i in range(10):
            t.put(key(i), b"x" * 30)


def _model_ops(max_key, max_value):
    """PUTs and DELETEs (value ``None``) over a small key space."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=max_key),
            st.one_of(st.none(), st.binary(min_size=1, max_size=max_value)),
        ),
        min_size=1,
        max_size=150,
    )


@settings(max_examples=30, deadline=None)
@given(_model_ops(max_key=200, max_value=40))
def test_matches_dict_model(ops):
    """Property: at moderate load the table is exactly a dict."""
    t = CuckooTable(n_buckets=1024, seed=2)
    model = {}
    for i, value in ops:
        if value is None:
            assert t.delete(key(i)) == (model.pop(i, None) is not None)
        else:
            assert t.put(key(i), value)
            model[i] = value
        assert t.get(key(i)) == model.get(i)
    for i in range(201):
        assert t.get(key(i)) == model.get(i)
    assert t.items == len(model)


def _blocked_put(table):
    """PUT a key whose three candidates are all taken; returns
    ``(last_op_accesses, kicks it made)``."""
    wanted = table.buckets_for(key(0))
    assert len(set(wanted)) == 3
    for bucket in wanted:
        blocker = next(
            key(i) for i in range(1, 100_000)
            if table.buckets_for(key(i))[0] == bucket and table.get(key(i)) is None
        )
        table.put(blocker, b"blocker")
    before = table.kicks
    assert table.put(key(0), b"v")
    return table.last_op_accesses, table.kicks - before


def test_relocating_put_is_charged_its_own_kicks_not_the_tables_lifetime():
    """``last_op_accesses`` was ``2 + self.kicks`` with ``kicks`` cumulative:
    after a preload one relocation was priced as hundreds of accesses."""
    fresh = CuckooTable(n_buckets=1024, seed=3)
    aged = CuckooTable(n_buckets=1024, seed=3)
    for i in range(200_000, 200_768):  # 75 % load, then empty again
        aged.put(key(i), b"v")
    assert aged.kicks > 100
    for i in range(200_000, 200_768):
        assert aged.delete(key(i))
    assert aged.items == 0
    assert _blocked_put(fresh) == _blocked_put(aged) == (4, 2)


@pytest.mark.parametrize("n", [17, 40])
def test_overlong_key_is_refused_not_truncated(n):
    """``16s`` packing used to cut the key: the PUT "succeeded", the GET
    missed, and a second PUT of the same key counted a second item."""
    t = CuckooTable()
    long_key = b"x" * n
    for call in (
        lambda: t.put(long_key, b"v"),
        lambda: t.get(long_key),
        lambda: t.delete(long_key),
        lambda: t.buckets_for(long_key),
    ):
        with pytest.raises(ValueError):
            call()
    assert t.items == 0
    assert t.put(b"short", b"v") and t.get(b"short") == b"v"  # padded, as before
