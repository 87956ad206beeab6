"""HERD's request and response formats (Section 4.2).

A request slot is 1 KB.  The RNIC's DMA writes are left-to-right, so
the 16-byte keyhash sits in the *rightmost* bytes of the slot: when the
polling server sees a non-zero keyhash, the rest of the request is
already in place.  A zero keyhash marks a free slot, which is why
clients may never use one.

Slot layout (offsets relative to the slot end)::

    [ ... unused ... | value (LEN bytes) | LEN: u16 | keyhash: 16 bytes ]

A GET carries only LEN = GET_MARKER plus the keyhash (18 bytes on the
wire); a PUT carries its value, LEN, and the keyhash.  The client
WRITEs only the trailing portion of the slot.

Responses need no header: a GET hit returns the raw value, a GET miss
returns an empty message, and a PUT acknowledgement is one status byte
(the client remembers which operation each pending token was).
Keeping a 60-byte value's response WQE within two write-combining
cachelines is what lets HERD sustain peak throughput through 60-byte
items (Figure 10).

Application retries, replication and overload protection prefix a
short header to that response.  :func:`framing_of` picks the framing
from the deployment's config; the client, the server and the request
region all read it from there.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.workloads.ycsb import Operation, OpType

KEYHASH_BYTES = 16
LEN_BYTES = 2
TRAILER_BYTES = LEN_BYTES + KEYHASH_BYTES

#: LEN value that marks a GET request (values are at most 1000 bytes,
#: so this cannot collide with a real length)
GET_MARKER = 0xFFFF

_LEN = struct.Struct("<H")

PUT_OK = b"\x01"


#: response framings, each named by its header's length in bytes.
#: ``FRAME_PLAIN`` is the paper's headerless response; application
#: retries (loss mode) reorder completions, so their responses name the
#: window slot and echo the request's slot epoch; replication and
#: overload protection add a status byte for their nacks.
FRAME_PLAIN = 0
FRAME_EPOCH = 2
FRAME_STATUS = 3


def framing_of(config) -> int:
    """The framing a :class:`~repro.herd.HerdConfig` deploys.

    Requests carry the slot epoch under every framing but the plain one.
    """
    if config.retry_timeout_ns is None:
        return FRAME_PLAIN
    if config.replication_factor > 1 or config.qos is not None:
        return FRAME_STATUS
    return FRAME_EPOCH


def encode_get(keyhash: bytes, framing: int = FRAME_PLAIN, epoch: int = 0) -> bytes:
    """The trailing bytes a client WRITEs for a GET.

    Outside the plain framing the request carries a one-byte slot
    *epoch* just before LEN: the client bumps it on every reuse of a
    window slot and the server echoes it in the response, so a delayed
    duplicate response can never be matched to a newer operation that
    happens to reuse the same slot.
    """
    _check_keyhash(keyhash)
    prefix = bytes((epoch & 0xFF,)) if framing else b""
    return prefix + _LEN.pack(GET_MARKER) + keyhash


def encode_put(
    keyhash: bytes, value: bytes, framing: int = FRAME_PLAIN, epoch: int = 0
) -> bytes:
    """The trailing bytes a client WRITEs for a PUT."""
    _check_keyhash(keyhash)
    if len(value) > GET_MARKER - 1:
        raise ValueError("value too large for the LEN field")
    prefix = bytes((epoch & 0xFF,)) if framing else b""
    return value + prefix + _LEN.pack(len(value)) + keyhash


def request_write_offset(slot_bytes: int, payload: bytes) -> int:
    """Offset inside the slot where the trailing payload begins."""
    return slot_bytes - len(payload)


def decode_request(
    slot, framing: int = FRAME_PLAIN, start: int = 0, end: Optional[int] = None
) -> Optional[Tuple[Operation, int]]:
    """Decode a request slot: ``(operation, epoch)``, or None if the
    slot is free (zero keyhash).

    ``slot`` is the slot's bytes, or any buffer that holds the slot at
    ``[start, end)`` — the request region decodes its slots in place,
    copying out the keyhash and the value and nothing else.  The epoch
    byte sits just before LEN (see :func:`encode_get`); the plain
    framing has none and decodes epoch 0.
    """
    if end is None:
        end = len(slot)
    keyhash = slot[end - KEYHASH_BYTES : end]
    if keyhash == b"\x00" * KEYHASH_BYTES:
        return None
    body_end = end - TRAILER_BYTES
    (length,) = _LEN.unpack_from(slot, body_end)
    epoch = 0
    if framing:
        body_end -= 1
        epoch = slot[body_end]
    if length == GET_MARKER:
        return Operation(OpType.GET, keyhash, None), epoch
    value_start = body_end - length
    if value_start < start:
        raise ValueError("corrupt request: LEN overruns the slot")
    return Operation(OpType.PUT, keyhash, slot[value_start:body_end]), epoch


def encode_response(op: OpType, value: Optional[bytes]) -> bytes:
    """The body of the response to a completed request."""
    if op is OpType.GET:
        return value if value is not None else b""
    return PUT_OK


def decode_response(op: OpType, payload: bytes) -> Tuple[bool, Optional[bytes]]:
    """Client-side decode of a response body: (success, value)."""
    if op is OpType.GET:
        if payload:
            return True, payload
        return False, None  # miss
    return payload == PUT_OK, None


def frame_response(
    framing: int, window_slot: int, epoch: int, status: int, body: bytes
) -> bytes:
    """The SEND payload answering window slot ``window_slot``.

    Only the status framing can carry a nack: a non-OK ``status`` under
    another framing is an error.
    """
    if framing == FRAME_STATUS:
        return bytes((window_slot, epoch, status)) + body
    if status != RESP_OK:
        raise ValueError("status %d needs the status framing" % status)
    if framing == FRAME_EPOCH:
        return bytes((window_slot, epoch)) + body
    return body


def parse_response(framing: int, raw: bytes) -> Tuple[Optional[int], int, int, bytes]:
    """Inverse of :func:`frame_response`: ``(window_slot, epoch,
    status, body)``.  The plain framing names no slot (None): its
    responses arrive in request order."""
    if framing == FRAME_PLAIN:
        return None, 0, RESP_OK, raw
    if framing == FRAME_EPOCH:
        return raw[0], raw[1], RESP_OK, raw[2:]
    return raw[0], raw[1], raw[2], raw[3:]


def _check_keyhash(keyhash: bytes) -> None:
    if len(keyhash) != KEYHASH_BYTES:
        raise ValueError("keyhash must be exactly 16 bytes")
    if keyhash == b"\x00" * KEYHASH_BYTES:
        raise ValueError("the zero keyhash is reserved for free slots")


# ---------------------------------------------------------------------------
# High-availability extensions (repro.ha)
# ---------------------------------------------------------------------------
#
# Under ``FRAME_STATUS`` (replication, overload protection) a response
# is ``[window_slot, request_epoch, status, body...]``.  A status byte —
# rather than an in-band magic body — keeps GET values fully opaque (a
# value may legitimately contain any bytes, so no body marker is safe).

#: response served normally; the body follows the classic encoding
RESP_OK = 0
#: the replica is no longer the partition's primary (its fencing epoch
#: is stale); the client must re-resolve the primary and replay
RESP_STALE_EPOCH = 2
#: the partition no longer owns this key's range (the shard map moved
#: under an elastic resharding); the client must re-fetch the map and
#: re-route the operation — the elastic sibling of RESP_STALE_EPOCH
RESP_NOT_OWNER = 3
#: the partition shed this request under overload (repro.qos admission
#: control); the client must back off — budgeted, exponential — before
#: re-sending, instead of hammering a saturated partition
RESP_RETRY_AFTER = 4

#: replication / control message kinds (first byte of every message)
REP_UPDATE = 1         # primary -> backup: one sequenced PUT record
REP_ACK = 2            # backup -> primary: record applied (or stale nack)
REP_CATCHUP = 3        # backup -> primary: replay your log above my hwm
CTRL_HEARTBEAT = 4     # replica -> monitor, over UD
CTRL_GRANT = 5         # monitor -> primary: lease extension
CTRL_CONFIG = 6        # monitor -> replicas: epoch/primary/membership
CTRL_MIG_START = 7     # coordinator -> source primary: begin a migration
CTRL_MIG_CUTOVER = 8   # coordinator -> source primary: freeze and flush
CTRL_MIG_ABORT = 9     # coordinator -> either side: drop the migration
CTRL_MIG_EVENT = 10    # source primary -> coordinator: synced / flushed
CTRL_SHARDMAP = 11     # coordinator -> everyone: new shard-map version
MIG_RECORD = 12        # source -> destination, over the RC mesh
MIG_ACK = 13           # destination -> source: record committed

#: REP_ACK statuses
ACK_APPLIED = 0
ACK_STALE = 1

# kind, partition, sender, epoch, seq, vlen, client, window_slot,
# req_epoch: the trailing three are the originating request's token, so
# a replica can recognise a client's retry of an already-applied PUT
# even after a failover (exactly-once apply)
_UPDATE_HDR = struct.Struct("<BBBIQHHBB")
_ACK_MSG = struct.Struct("<BBBIQBQ")     # kind, partition, sender, epoch, seq, status, hwm
_CATCHUP_MSG = struct.Struct("<BBBIQ")   # kind, partition, sender, epoch, from_seq
_HB_MSG = struct.Struct("<BBBBIQd")      # kind, partition, sender, primary?, epoch, hwm, sent_ns
_GRANT_MSG = struct.Struct("<BBBId")     # kind, partition, target, epoch, hb_sent_ns
_CONFIG_HDR = struct.Struct("<BBBIB")    # kind, partition, primary, epoch, n_members


def ha_kind(data: bytes) -> int:
    """The message-kind byte of an HA replication/control message."""
    return data[0]


def encode_update(
    partition: int,
    sender: int,
    epoch: int,
    seq: int,
    keyhash: bytes,
    value: bytes,
    client: int = 0,
    window_slot: int = 0,
    req_epoch: int = 0,
) -> bytes:
    """One sequenced PUT record shipped primary -> backup over RC."""
    _check_keyhash(keyhash)
    return (
        _UPDATE_HDR.pack(
            REP_UPDATE, partition, sender, epoch, seq, len(value),
            client, window_slot, req_epoch,
        )
        + keyhash
        + value
    )


def decode_update(data: bytes):
    """(partition, sender, epoch, seq, keyhash, value, client,
    window_slot, req_epoch)."""
    (
        kind, partition, sender, epoch, seq, vlen,
        client, window_slot, req_epoch,
    ) = _UPDATE_HDR.unpack_from(data)
    assert kind == REP_UPDATE
    start = _UPDATE_HDR.size
    keyhash = data[start:start + KEYHASH_BYTES]
    value = data[start + KEYHASH_BYTES:start + KEYHASH_BYTES + vlen]
    return partition, sender, epoch, seq, keyhash, value, client, window_slot, req_epoch


def encode_rep_ack(
    partition: int, sender: int, epoch: int, seq: int, status: int, hwm: int
) -> bytes:
    return _ACK_MSG.pack(REP_ACK, partition, sender, epoch, seq, status, hwm)


def decode_rep_ack(data: bytes):
    """(partition, sender, epoch, seq, status, hwm)."""
    return _ACK_MSG.unpack(data)[1:]


def encode_catchup(partition: int, sender: int, epoch: int, from_seq: int) -> bytes:
    return _CATCHUP_MSG.pack(REP_CATCHUP, partition, sender, epoch, from_seq)


def decode_catchup(data: bytes):
    """(partition, sender, epoch, from_seq)."""
    return _CATCHUP_MSG.unpack(data)[1:]


def encode_heartbeat(
    partition: int, sender: int, is_primary: bool, epoch: int, hwm: int, sent_ns: float
) -> bytes:
    return _HB_MSG.pack(
        CTRL_HEARTBEAT, partition, sender, 1 if is_primary else 0, epoch, hwm, sent_ns
    )


def decode_heartbeat(data: bytes):
    """(partition, sender, is_primary, epoch, hwm, sent_ns)."""
    _, partition, sender, primary, epoch, hwm, sent_ns = _HB_MSG.unpack(data)
    return partition, sender, bool(primary), epoch, hwm, sent_ns


def encode_grant(partition: int, target: int, epoch: int, hb_sent_ns: float) -> bytes:
    return _GRANT_MSG.pack(CTRL_GRANT, partition, target, epoch, hb_sent_ns)


def decode_grant(data: bytes):
    """(partition, target, epoch, hb_sent_ns)."""
    return _GRANT_MSG.unpack(data)[1:]


def encode_config(
    partition: int, primary: int, epoch: int, members
) -> bytes:
    members = sorted(members)
    return _CONFIG_HDR.pack(
        CTRL_CONFIG, partition, primary, epoch, len(members)
    ) + bytes(members)


def decode_config(data: bytes):
    """(partition, primary, epoch, members-tuple)."""
    _, partition, primary, epoch, n = _CONFIG_HDR.unpack_from(data)
    members = tuple(data[_CONFIG_HDR.size:_CONFIG_HDR.size + n])
    return partition, primary, epoch, members


# ---------------------------------------------------------------------------
# Elastic resharding (repro.elastic)
# ---------------------------------------------------------------------------
#
# Ranges cover the 64-bit hash space as [lo, hi); the exclusive bound
# of the last range is 2**64, which does not fit in a u64, so on the
# wire hi == 0 means "the end of the hash space" (lo < hi always holds
# for a real range, so 0 is free to repurpose).

#: CTRL_MIG_EVENT codes, source primary -> coordinator
MIG_SYNCED = 0    # snapshot shipped and every shipped record acked
MIG_FLUSHED = 1   # frozen: no in-range write remains uncommitted/unacked

#: sentinel "client id" carried by migrated-in records through the
#: replication stream — real clients are always numbered below this,
#: so replicas can tell a migration record from a client request (and
#: skip the at-most-once completed-table bookkeeping for it)
MIG_CLIENT = 0xFFFF

# kind, mig_id, src_partition, dst_partition, dst_replica, lo, hi
_MIG_START_MSG = struct.Struct("<BIBBBQQ")
_MIG_EVENT_MSG = struct.Struct("<BIBB")   # kind, mig_id, partition, event
_MIG_CTL_MSG = struct.Struct("<BI")       # kind (cutover/abort), mig_id
# kind, mig_id, mseq, dst_partition, vlen — then keyhash + value
_MIG_RECORD_HDR = struct.Struct("<BIQBH")
_MIG_ACK_MSG = struct.Struct("<BIQ")      # kind, mig_id, mseq
_SHARDMAP_HDR = struct.Struct("<BIB")     # kind, version, n_entries
_SHARDMAP_ENTRY = struct.Struct("<QB")    # range start, owner partition

_U64_END = 1 << 64


def _wire_hi(hi: int) -> int:
    return 0 if hi >= _U64_END else hi


def _unwire_hi(hi: int) -> int:
    return _U64_END if hi == 0 else hi


def encode_mig_start(
    mig_id: int, src_partition: int, dst_partition: int,
    dst_replica: int, lo: int, hi: int,
) -> bytes:
    return _MIG_START_MSG.pack(
        CTRL_MIG_START, mig_id, src_partition, dst_partition,
        dst_replica, lo, _wire_hi(hi),
    )


def decode_mig_start(data: bytes):
    """(mig_id, src_partition, dst_partition, dst_replica, lo, hi)."""
    _, mig_id, src, dst, dst_replica, lo, hi = _MIG_START_MSG.unpack(data)
    return mig_id, src, dst, dst_replica, lo, _unwire_hi(hi)


def encode_mig_event(mig_id: int, partition: int, event: int) -> bytes:
    return _MIG_EVENT_MSG.pack(CTRL_MIG_EVENT, mig_id, partition, event)


def decode_mig_event(data: bytes):
    """(mig_id, partition, event)."""
    return _MIG_EVENT_MSG.unpack(data)[1:]


def encode_mig_cutover(mig_id: int) -> bytes:
    return _MIG_CTL_MSG.pack(CTRL_MIG_CUTOVER, mig_id)


def encode_mig_abort(mig_id: int) -> bytes:
    return _MIG_CTL_MSG.pack(CTRL_MIG_ABORT, mig_id)


def decode_mig_ctl(data: bytes) -> int:
    """The mig_id of a cutover or abort message."""
    return _MIG_CTL_MSG.unpack(data)[1]


def encode_mig_record(
    mig_id: int, mseq: int, dst_partition: int, keyhash: bytes, value: bytes
) -> bytes:
    """One migrated record, source -> destination over the RC mesh."""
    _check_keyhash(keyhash)
    return (
        _MIG_RECORD_HDR.pack(MIG_RECORD, mig_id, mseq, dst_partition, len(value))
        + keyhash
        + value
    )


def decode_mig_record(data: bytes):
    """(mig_id, mseq, dst_partition, keyhash, value)."""
    _, mig_id, mseq, dst_partition, vlen = _MIG_RECORD_HDR.unpack_from(data)
    start = _MIG_RECORD_HDR.size
    keyhash = data[start:start + KEYHASH_BYTES]
    value = data[start + KEYHASH_BYTES:start + KEYHASH_BYTES + vlen]
    return mig_id, mseq, dst_partition, keyhash, value


def encode_mig_ack(mig_id: int, mseq: int) -> bytes:
    return _MIG_ACK_MSG.pack(MIG_ACK, mig_id, mseq)


def decode_mig_ack(data: bytes):
    """(mig_id, mseq)."""
    return _MIG_ACK_MSG.unpack(data)[1:]


def encode_shard_map(version: int, entries) -> bytes:
    """``entries`` is the sorted boundary list ``[(start, owner), ...]``."""
    out = [_SHARDMAP_HDR.pack(CTRL_SHARDMAP, version, len(entries))]
    for start, owner in entries:
        out.append(_SHARDMAP_ENTRY.pack(start, owner))
    return b"".join(out)


def decode_shard_map(data: bytes):
    """(version, ((start, owner), ...))."""
    _, version, n = _SHARDMAP_HDR.unpack_from(data)
    entries = []
    offset = _SHARDMAP_HDR.size
    for _i in range(n):
        start, owner = _SHARDMAP_ENTRY.unpack_from(data, offset)
        entries.append((start, owner))
        offset += _SHARDMAP_ENTRY.size
    return version, tuple(entries)
