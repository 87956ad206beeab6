"""Tests for HERD's request/response wire formats and the request region."""

import mmap

import pytest

from repro.herd import HerdConfig, RequestRegion, partition_of
from repro.herd.config import SLOT_BYTES
from repro.herd.wire import (
    FRAME_EPOCH,
    FRAME_PLAIN,
    GET_MARKER,
    decode_request,
    decode_response,
    encode_get,
    encode_put,
    encode_response,
    request_write_offset,
)
from repro.hw import APT, Fabric, Machine
from repro.sim import Simulator
from repro.verbs import RdmaDevice
from repro.workloads import OpType
from repro.workloads.ycsb import keyhash


KH = keyhash(1234)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_get_request_is_18_bytes():
    """A GET request consists only of the keyhash (plus the LEN marker):
    the paper's 16-byte GET plus our explicit 2-byte opcode-in-LEN."""
    assert len(encode_get(KH)) == 18


def test_put_request_carries_value_len_key():
    payload = encode_put(KH, b"v" * 32)
    assert len(payload) == 32 + 2 + 16
    assert payload.endswith(KH)


def test_zero_keyhash_rejected():
    """Section 4.2: clients may not use a zero keyhash — it marks a
    free slot."""
    with pytest.raises(ValueError):
        encode_get(b"\x00" * 16)
    with pytest.raises(ValueError):
        encode_put(b"\x00" * 16, b"v")


def test_bad_keyhash_length_rejected():
    with pytest.raises(ValueError):
        encode_get(b"\x01" * 15)


def test_slot_roundtrip_get():
    slot = bytearray(1024)
    payload = encode_get(KH)
    slot[request_write_offset(1024, payload):] = payload
    op, epoch = decode_request(bytes(slot))
    assert epoch == 0
    assert op.op is OpType.GET
    assert op.key == KH
    assert op.value is None


def test_slot_roundtrip_put():
    slot = bytearray(1024)
    payload = encode_put(KH, b"hello-world")
    slot[request_write_offset(1024, payload):] = payload
    op, epoch = decode_request(bytes(slot))
    assert epoch == 0
    assert op.op is OpType.PUT
    assert op.key == KH
    assert op.value == b"hello-world"


def test_free_slot_decodes_to_none():
    assert decode_request(bytes(1024)) is None


@pytest.mark.parametrize("epoch", [None, 0, 7, 255], ids=lambda e: "epoch=%r" % e)
@pytest.mark.parametrize(
    "value", [None, b"v", b"hello-world", b"\x00" * 40, bytes(range(256)) * 3 + b"tail"]
)
def test_decoding_in_place_equals_decoding_a_copy(value, epoch):
    """``RequestRegion.take`` decodes inside the region's ``mmap``
    at the slot's bounds; the answer is the one the slot's own bytes
    give — loss-mode epoch byte included, neighbours ignored."""
    region = mmap.mmap(-1, 3 * 1024, access=mmap.ACCESS_COPY)
    region[:] = b"\xa5" * len(region)  # live-looking neighbours on both sides
    region[1024:2048] = bytes(1024)
    framing = FRAME_PLAIN if epoch is None else FRAME_EPOCH
    payload = (
        encode_get(KH, framing, epoch or 0)
        if value is None
        else encode_put(KH, value, framing, epoch or 0)
    )
    region[2048 - len(payload) : 2048] = payload
    copy = decode_request(region[1024:2048], framing)
    assert decode_request(region, framing, start=1024, end=2048) == copy
    slot = mmap.mmap(-1, 1024, access=mmap.ACCESS_COPY)
    slot[:] = region[1024:2048]
    assert decode_request(slot, framing) == copy
    op, got_epoch = copy
    assert (op.key, op.value, got_epoch) == (KH, value, epoch or 0)
    assert type(op.key) is bytes and (value is None or type(op.value) is bytes)
    # a free slot between live neighbours
    region[2048 - 16 : 2048] = bytes(16)
    assert decode_request(region, framing, start=1024, end=2048) is None


def test_in_place_len_overrunning_the_slot_is_corrupt_not_a_neighbours_bytes():
    region = bytearray(b"\xa5" * 2048)
    payload = encode_put(KH, b"x" * 1010)  # 1028 bytes: more than a slot
    region[2048 - len(payload) :] = payload
    with pytest.raises(ValueError):
        decode_request(region, start=1024, end=2048)
    with pytest.raises(ValueError):
        decode_request(bytes(region[1024:]))


def test_keyhash_occupies_rightmost_bytes():
    """The keyhash is written to the rightmost 16 bytes of the slot so
    the RNIC's left-to-right DMA makes it visible last (Section 4.2)."""
    slot = bytearray(1024)
    payload = encode_put(KH, b"x" * 100)
    slot[request_write_offset(1024, payload):] = payload
    assert bytes(slot[-16:]) == KH


def test_max_value_fits_1kb_slot():
    payload = encode_put(KH, b"v" * 1000)
    assert len(payload) <= 1024


def test_response_roundtrips():
    ok, value = decode_response(OpType.GET, encode_response(OpType.GET, b"val"))
    assert ok and value == b"val"
    ok, value = decode_response(OpType.GET, encode_response(OpType.GET, None))
    assert not ok and value is None  # miss
    ok, value = decode_response(OpType.PUT, encode_response(OpType.PUT, None))
    assert ok and value is None


def test_get_marker_cannot_collide_with_real_length():
    assert GET_MARKER > 1000  # max HERD value size


# ---------------------------------------------------------------------------
# request region geometry
# ---------------------------------------------------------------------------


def make_region(ns=2, nc=3, w=2):
    sim = Simulator()
    fabric = Fabric(sim, APT)
    dev = RdmaDevice(Machine(sim, fabric, "server"))
    cfg = HerdConfig(n_server_processes=ns, window=w)
    return sim, RequestRegion(sim, dev, cfg, nc), cfg


def test_region_size_matches_formula():
    """Region size is NS * NC * W KB (Section 4.2)."""
    _sim, region, cfg = make_region(ns=2, nc=3, w=2)
    assert region.mr.length == 2 * 3 * 2 * 1024


def test_slot_index_formula():
    """slot(s, c, w) = s*(W*NC) + c*W + w — the paper's polling formula."""
    _sim, region, cfg = make_region(ns=2, nc=3, w=2)
    assert region.slot_index(0, 0, 0) == 0
    assert region.slot_index(0, 0, 1) == 1
    assert region.slot_index(0, 1, 0) == 2
    assert region.slot_index(1, 0, 0) == 6
    assert region.slot_index(1, 2, 1) == 11


def test_slot_index_bounds():
    _sim, region, _cfg = make_region()
    with pytest.raises(IndexError):
        region.slot_index(2, 0, 0)
    with pytest.raises(IndexError):
        region.slot_index(0, 3, 0)
    with pytest.raises(IndexError):
        region.slot_index(0, 0, 2)


def test_locate_inverts_slot_offset():
    _sim, region, _cfg = make_region(ns=2, nc=3, w=2)
    for s in range(2):
        for c in range(3):
            for w in range(2):
                offset = region.slot_offset(s, c, w)
                assert region.locate(offset) == (s, c, w)
                assert region.locate(offset + 512) == (s, c, w)


def test_write_notification_routed_to_owning_server():
    sim, region, cfg = make_region(ns=2, nc=3, w=2)
    region.mr.on_write(region.slot_offset(1, 2, 0), 18)
    assert len(region.arrivals[1]) == 1
    assert len(region.arrivals[0]) == 0
    assert region.arrivals[1].try_get() == (2, 0)


def test_clear_slot_zeroes_only_keyhash():
    _sim, region, cfg = make_region()
    offset = region.slot_offset(0, 1, 1)
    payload = encode_put(KH, b"data")
    region.mr.write(offset + SLOT_BYTES - len(payload), payload)
    assert region.take(0, (1, 1)) is not None
    region.clear_slot(0, 1, 1)
    assert region.take(0, (1, 1)) is None
    # The value bytes are untouched; only the keyhash was zeroed.
    tail = region.mr.read(offset + SLOT_BYTES - len(payload), 4)
    assert tail == b"data"


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def test_partition_is_stable_and_in_range():
    for i in range(100):
        p = partition_of(keyhash(i), 6)
        assert 0 <= p < 6
        assert p == partition_of(keyhash(i), 6)


def test_partitions_are_balanced():
    from collections import Counter

    counts = Counter(partition_of(keyhash(i), 6) for i in range(60_000))
    assert max(counts.values()) / min(counts.values()) < 1.1


def test_config_validation():
    with pytest.raises(ValueError):
        HerdConfig(n_server_processes=0)
    with pytest.raises(ValueError):
        HerdConfig(window=0)
