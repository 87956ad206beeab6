"""Tests for the hopscotch table (FaRM-KV's backend)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.hopscotch import HopscotchFullError, HopscotchTable


def key(i):
    return ("hs-%06d" % i).encode().ljust(16, b"\x00")


@pytest.fixture(params=[True, False], ids=["inline", "var"])
def table(request):
    return HopscotchTable(n_slots=1024, value_capacity=64, inline=request.param)


def test_put_get_roundtrip(table):
    table.put(key(1), b"hello")
    assert table.get(key(1)) == b"hello"


def test_missing_key(table):
    assert table.get(key(9)) is None


def test_overwrite(table):
    table.put(key(1), b"one")
    table.put(key(1), b"two")
    assert table.get(key(1)) == b"two"
    assert table.items == 1


def test_delete(table):
    table.put(key(1), b"v")
    assert table.delete(key(1))
    assert table.get(key(1)) is None
    assert not table.delete(key(1))


def test_neighborhood_is_six():
    """The paper sets the neighborhood size to 6 (Section 5.1.2)."""
    assert HopscotchTable.NEIGHBORHOOD == 6


def test_neighborhood_invariant_holds_under_load():
    """Every key must live within 6 slots of its home bucket — that is
    the guarantee that makes single-READ GETs possible."""
    t = HopscotchTable(n_slots=256, value_capacity=16, inline=True)
    stored = []
    try:
        for i in range(1000):
            t.put(key(i), b"v%03d" % (i % 1000))
            stored.append(i)
    except HopscotchFullError:
        pass
    assert len(stored) > 100
    for i in stored:
        home = t.home_of(key(i))
        found = False
        for d in range(t.NEIGHBORHOOD):
            skey, _vlen, flags = t._head((home + d) % t.n_slots)
            if flags & 1 and skey == key(i):
                found = True
                break
        assert found, "key %d outside its neighborhood" % i


def test_displacement_counter_increments():
    t = HopscotchTable(n_slots=128, value_capacity=8, inline=True)
    try:
        for i in range(128):
            t.put(key(i), b"v")
    except HopscotchFullError:
        pass
    assert t.displacements > 0


def test_inline_get_is_single_access_var_is_two():
    """FaRM-em: 1 READ (inline); FaRM-em-VAR: 2 READs (Section 5.1.2)."""
    inline = HopscotchTable(inline=True)
    var = HopscotchTable(inline=False)
    inline.put(key(1), b"v")
    var.put(key(1), b"v")
    inline.get(key(1))
    var.get(key(1))
    assert inline.last_op_accesses == 1
    assert var.last_op_accesses == 2


def test_neighborhood_span_sizes_match_paper_formulas():
    """Inline neighborhood bytes ~ 6*(SK+SV); VAR ~ 6*(SK+SP)."""
    sv = 32
    inline = HopscotchTable(value_capacity=sv, inline=True)
    var = HopscotchTable(inline=False)
    _off, inline_len = inline.neighborhood_span(key(1))
    _off, var_len = var.neighborhood_span(key(1))
    assert inline_len == 6 * (20 + sv)  # 16B key + 4B header + value
    assert var_len == 6 * 24            # 16B key + 4B header + 4B pointer
    assert var_len < inline_len


def test_remote_parse_of_neighborhood_inline():
    """A FaRM client READs the 6 slots and decodes them locally."""
    t = HopscotchTable(n_slots=512, value_capacity=32, inline=True)
    t.put(key(3), b"inline-value")
    data = t.read_neighborhood(key(3))
    value, ptr = t.parse_neighborhood(key(3), data)
    assert value == b"inline-value"
    assert ptr == -1


def test_remote_parse_of_neighborhood_var_then_extent():
    t = HopscotchTable(n_slots=512, inline=False)
    t.put(key(3), b"out-of-table")
    data = t.read_neighborhood(key(3))
    value, ptr = t.parse_neighborhood(key(3), data)
    assert value == b""
    assert ptr >= 0
    assert t.read_extent(ptr, len(b"out-of-table")) == b"out-of-table"


def test_remote_parse_missing_key():
    t = HopscotchTable()
    assert t.parse_neighborhood(key(1), t.read_neighborhood(key(1))) is None


def test_oversized_inline_value_rejected():
    t = HopscotchTable(value_capacity=8, inline=True)
    with pytest.raises(ValueError):
        t.put(key(1), b"x" * 9)


def test_wrap_around_neighborhood():
    """Neighborhoods that straddle the end of the table still work."""
    t = HopscotchTable(n_slots=64, value_capacity=8, inline=True)
    # Find a key homed in the last few slots.
    k = next(key(i) for i in range(10000) if t.home_of(key(i)) >= t.n_slots - 2)
    t.put(k, b"wrap")
    assert t.get(k) == b"wrap"
    assert t.parse_neighborhood(k, t.read_neighborhood(k))[0] == b"wrap"


@settings(max_examples=30, deadline=None)
@given(
    st.booleans(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.one_of(st.none(), st.binary(min_size=1, max_size=16)),  # None: DELETE
        ),
        min_size=1,
        max_size=150,
    ),
)
def test_matches_dict_model(inline, ops):
    """Property: the table is exactly a dict — on 64 slots, so that
    neighborhoods wrap the end of the table and items get displaced —
    and a remote reader decodes what a local GET returns."""
    t = HopscotchTable(n_slots=64, value_capacity=16, inline=inline, extent_bytes=1 << 12)
    assert any(t.home_of(key(i)) > t.n_slots - t.NEIGHBORHOOD for i in range(41))
    model = {}
    for i, value in ops:
        if value is None:
            assert t.delete(key(i)) == (model.pop(i, None) is not None)
        else:
            try:
                assert t.put(key(i), value)
            except HopscotchFullError:
                continue  # refused whole: every other key must be intact
            model[i] = value
        assert t.get(key(i)) == model.get(i)
    for i in range(41):
        assert t.get(key(i)) == model.get(i)
        parsed = t.parse_neighborhood(key(i), t.read_neighborhood(key(i)))
        if i not in model:
            assert parsed is None
        elif inline:
            assert parsed == (model[i], -1)
        else:
            assert t.read_extent(parsed[1], len(model[i])) == model[i]
    assert t.items == len(model)


@pytest.mark.parametrize("lent", [None, 64 * 28 + 100], ids=["own", "lent-and-longer"])
def test_read_neighborhood_is_the_six_slots_in_order_wrapped_or_not(lent):
    t = HopscotchTable(
        n_slots=64, value_capacity=8, inline=True,
        table_buffer=None if lent is None else bytearray(b"\xa5" * lent),
    )
    for slot in range(t.n_slots):  # a lent buffer is not zeroed by the table
        t._store(slot, bytes(16), b"", occupied=False)
    for i in range(40):
        t.put(key(i), b"v%d" % i)
    homes = set()
    for i in range(2000):
        home = t.home_of(key(i))
        homes.add(home)
        slots = [(home + d) % t.n_slots for d in range(t.NEIGHBORHOOD)]
        expected = b"".join(
            bytes(t.table[s * t.slot_bytes : (s + 1) * t.slot_bytes]) for s in slots
        )
        assert t.read_neighborhood(key(i)) == expected
    assert homes == set(range(t.n_slots))


def test_overlong_key_is_refused_not_truncated(table):
    """``16s`` packing used to cut the key: the PUT "succeeded", the GET
    missed, and a second PUT of the same key counted a second item."""
    long_key = b"x" * 17
    for call in (
        lambda: table.put(long_key, b"v"),
        lambda: table.get(long_key),
        lambda: table.delete(long_key),
        lambda: table.home_of(long_key),
        lambda: table.neighborhood_span(long_key),
        lambda: table.read_neighborhood(long_key),
    ):
        with pytest.raises(ValueError):
            call()
    assert table.items == 0
    assert table.put(b"short", b"v") and table.get(b"short") == b"v"  # padded, as before
