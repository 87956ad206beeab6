"""Cross-layer property tests (hypothesis)."""

import mmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.herd.config import partition_of
from repro.herd.wire import (
    FRAME_EPOCH,
    FRAME_PLAIN,
    FRAME_STATUS,
    RESP_NOT_OWNER,
    RESP_OK,
    RESP_RETRY_AFTER,
    RESP_STALE_EPOCH,
    decode_request,
    encode_get,
    encode_put,
    encode_response,
    frame_response,
    parse_response,
    request_write_offset,
)
from repro.hw import APT, Fabric, Machine
from repro.sim import Simulator
from repro.verbs import (
    Opcode,
    RdmaDevice,
    RecvRequest,
    Transport,
    VerbError,
    WorkRequest,
    connect_pair,
)
from repro.verbs.mr import MrTable
from repro.workloads.ycsb import OpType, keyhash


# ---------------------------------------------------------------------------
# memory registration
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=30))
def test_registered_regions_never_overlap(lengths):
    table = MrTable()
    regions = [table.register(length) for length in lengths]
    spans = sorted((mr.addr, mr.addr + mr.length) for mr in regions)
    for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
        assert a_end <= b_start
    # And rkeys are unique.
    assert len({mr.rkey for mr in regions}) == len(regions)


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=1, max_value=16))
def test_partition_stable_and_in_range(item, n_partitions):
    kh = keyhash(item)
    p = partition_of(kh, n_partitions)
    assert 0 <= p < n_partitions
    assert p == partition_of(kh, n_partitions)


# ---------------------------------------------------------------------------
# HERD wire format
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=2 ** 31),
    st.binary(min_size=0, max_size=1000),
)
def test_put_roundtrips_through_a_slot(item, value):
    kh = keyhash(item)
    payload = encode_put(kh, value)
    slot = bytearray(1024)
    slot[request_write_offset(1024, payload):] = payload
    op, epoch = decode_request(bytes(slot))
    assert epoch == 0
    assert op.key == kh
    assert op.value == value


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1024, max_size=1024))
def test_decode_request_never_crashes_unexpectedly(slot):
    """Random slot contents either decode, report a free slot, or raise
    ValueError (corrupt LEN) — never anything else."""
    try:
        decode_request(slot)
    except ValueError:
        pass


FRAMINGS = st.sampled_from([FRAME_PLAIN, FRAME_EPOCH, FRAME_STATUS])
STATUSES = st.sampled_from([RESP_OK, RESP_STALE_EPOCH, RESP_NOT_OWNER, RESP_RETRY_AFTER])


@settings(max_examples=200, deadline=None)
@given(
    FRAMINGS,
    st.integers(min_value=0, max_value=254),
    st.integers(min_value=0, max_value=255),
    STATUSES,
    st.binary(min_size=0, max_size=1024),
)
def test_response_framing_roundtrips(framing, window_slot, epoch, status, body):
    """``parse_response`` inverts ``frame_response`` in every framing: the
    status framing carries all four fields, the epoch framing the slot
    and epoch (a nack cannot be framed there), and the plain framing —
    the paper's headerless response — the body alone."""
    if framing != FRAME_STATUS and status != RESP_OK:
        with pytest.raises(ValueError):
            frame_response(framing, window_slot, epoch, status, body)
        return
    raw = frame_response(framing, window_slot, epoch, status, body)
    assert len(raw) == framing + len(body)
    expected = (window_slot, epoch, status, body)
    if framing == FRAME_PLAIN:
        expected = (None, 0, RESP_OK, body)
    assert parse_response(framing, raw) == expected


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([OpType.GET, OpType.PUT]), st.none() | st.binary(max_size=1000))
def test_plain_framing_is_the_headerless_response(op, value):
    body = encode_response(op, value)
    assert frame_response(FRAME_PLAIN, 3, 7, RESP_OK, body) == body


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2 ** 31),
    st.none() | st.binary(min_size=0, max_size=1000),
    st.none() | st.integers(min_value=0, max_value=255),
)
def test_requests_roundtrip_in_place_in_every_framing(item, value, epoch):
    """A GET (``value`` None) or PUT, with or without the epoch byte,
    decodes in place from an mmap-backed region between live-looking
    neighbours to exactly what was encoded."""
    kh = keyhash(item)
    framing = FRAME_PLAIN if epoch is None else FRAME_EPOCH
    if value is None:
        kind, payload = OpType.GET, encode_get(kh, framing, epoch or 0)
    else:
        kind, payload = OpType.PUT, encode_put(kh, value, framing, epoch or 0)
    region = mmap.mmap(-1, 3 * 1024, access=mmap.ACCESS_COPY)
    region[:] = b"\xa5" * len(region)
    region[2048 - len(payload) : 2048] = payload
    op, got_epoch = decode_request(region, framing, start=1024, end=2048)
    assert (op.op, op.key, op.value, got_epoch) == (kind, kh, value, epoch or 0)


# ---------------------------------------------------------------------------
# verbs conservation laws
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["WRITE-UC", "WRITE-RC", "READ", "SEND-UC"]),
            st.integers(min_value=1, max_value=200),
            st.booleans(),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_signaled_posts_equal_completions(batch):
    """Property: after quiescence, every signaled send-queue verb has
    exactly one completion, unsignaled ones have none, and all data
    landed where it was aimed."""
    sim = Simulator()
    fabric = Fabric(sim, APT)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    client = RdmaDevice(Machine(sim, fabric, "client"))
    target = server.register_memory(1 << 16)
    sink = client.register_memory(1 << 16)
    _suc, uc = connect_pair(server, client, Transport.UC)
    src_rc, rc = connect_pair(server, client, Transport.RC)

    del src_rc  # server-side RC endpoint is driven implicitly

    def source_kwargs(data, offset, size):
        if size <= 256:
            return {"payload": data, "inline": True}
        sink.write(offset, data)
        return {"local": (sink, offset, size)}

    expected_completions = 0
    recv_mr = server.register_memory(1 << 16)
    for i, (kind, size, signaled) in enumerate(batch):
        data = bytes([i % 255 + 1]) * size
        offset = (i * 256) % ((1 << 16) - 1024)
        if kind in ("WRITE-UC", "WRITE-RC"):
            qp = uc if kind == "WRITE-UC" else rc
            client.post_send(
                qp,
                WorkRequest.write(
                    raddr=target.addr + offset, rkey=target.rkey,
                    signaled=signaled, **source_kwargs(data, offset, size),
                ),
            )
        elif kind == "READ":
            signaled = True  # READs complete via their response
            client.post_send(
                rc,
                WorkRequest.read(
                    raddr=target.addr + offset, rkey=target.rkey,
                    local=(sink, offset, size),
                ),
            )
        else:  # SEND-UC
            server.post_recv(
                _suc, RecvRequest(wr_id=i, local=(recv_mr, offset, size + 64))
            )
            client.post_send(
                uc,
                WorkRequest.send(
                    signaled=signaled, **source_kwargs(data, offset, size)
                ),
            )
        if signaled:
            expected_completions += 1
    sim.run_until_idle()
    got = len(uc.send_cq) + len(rc.send_cq)
    assert got == expected_completions
