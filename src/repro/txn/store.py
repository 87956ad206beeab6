"""Per-partition versioned slot store shared by both commit dataplanes.

Each key owns a fixed slot inside the partition's registered region::

    [ lock u64 ][ version u64 ][ value value_bytes ]

* ``lock`` — 0 when free, else the owner token of the transaction that
  holds it.  The RPC server mutates it CPU-side; the one-sided dataplane
  CASes it with verbs atomics.  The two interoperate because both go
  through the same bytes.
* ``version`` — bumped by one on every committed install; OCC read
  validation compares versions.
* ``value`` — the payload, installed together with the version + lock
  release in one WRITE on the one-sided path so a concurrent READ never
  sees a half-written slot boundary (the simulator copies packets
  atomically, as the NIC's DMA does per slot-sized payloads).

Keys are spread round-robin: key *k* lives in partition ``k % P`` at
local index ``k // P``.  The geometry is fixed so one-sided clients can
compute a slot's address from the store's base address with pure
arithmetic (``TxnClientProcess._slot_info``) — no RPC needed to locate
data, which is the whole point of that dataplane.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Tuple

LOCK_OFF = 0
VER_OFF = 8
VAL_OFF = 16
SLOT_HDR_BYTES = 16

_U64 = struct.Struct("<Q")
_HDR = struct.Struct("<QQ")


class TxnPartitionStore:
    """One partition's keys, versions, and lock words in a registered MR."""

    def __init__(self, device, partition: int, n_partitions: int,
                 n_keys: int, value_bytes: int) -> None:
        if not 0 <= partition < n_partitions:
            raise ValueError("partition %d out of range" % partition)
        self.partition = partition
        self.n_partitions = n_partitions
        self.n_keys = n_keys
        self.value_bytes = value_bytes
        self.slot_bytes = SLOT_HDR_BYTES + value_bytes
        #: number of keys this partition owns
        self.n_local = len(range(partition, n_keys, n_partitions))
        self.mr = device.register_memory(max(1, self.n_local) * self.slot_bytes)

    # -- geometry ----------------------------------------------------------

    def owns(self, key: int) -> bool:
        return 0 <= key < self.n_keys and key % self.n_partitions == self.partition

    def slot_offset(self, key: int) -> int:
        if not self.owns(key):
            raise KeyError("key %d not owned by partition %d" % (key, self.partition))
        return (key // self.n_partitions) * self.slot_bytes

    def local_keys(self) -> Iterator[int]:
        return iter(range(self.partition, self.n_keys, self.n_partitions))

    # -- CPU-side access (RPC server, audits) ------------------------------

    def read_slot(self, key: int) -> Tuple[int, int, bytes]:
        """(lock, version, value) for ``key``."""
        off = self.slot_offset(key)
        lock, version = _HDR.unpack_from(self.mr.buf, off)
        value = self.mr.read(off + VAL_OFF, self.value_bytes)
        return lock, version, value

    def read_lock(self, key: int) -> int:
        return _U64.unpack_from(self.mr.buf, self.slot_offset(key) + LOCK_OFF)[0]

    def read_version(self, key: int) -> int:
        return _U64.unpack_from(self.mr.buf, self.slot_offset(key) + VER_OFF)[0]

    def try_lock(self, key: int, owner: int) -> bool:
        """CPU-side test-and-set; True if now held by ``owner``."""
        if owner == 0:
            raise ValueError("owner token must be nonzero")
        off = self.slot_offset(key) + LOCK_OFF
        (current,) = _U64.unpack_from(self.mr.buf, off)
        if current == 0 or current == owner:
            self.mr.write(off, _U64.pack(owner))
            return True
        return False

    def unlock(self, key: int, owner: int) -> None:
        off = self.slot_offset(key) + LOCK_OFF
        (current,) = _U64.unpack_from(self.mr.buf, off)
        if current == owner:
            self.mr.write(off, _U64.pack(0))

    def apply(self, key: int, value: bytes) -> None:
        """Install ``value`` and bump the version (lock word untouched)."""
        if len(value) != self.value_bytes:
            raise ValueError("value must be exactly %d bytes" % self.value_bytes)
        off = self.slot_offset(key)
        (version,) = _U64.unpack_from(self.mr.buf, off + VER_OFF)
        self.mr.write(off + VER_OFF, _U64.pack(version + 1))
        self.mr.write(off + VAL_OFF, value)

    def scan(self) -> Dict[int, Tuple[int, bytes]]:
        """{key: (version, value)} for the final-state audit."""
        out = {}
        for key in self.local_keys():
            _, version, value = self.read_slot(key)
            out[key] = (version, value)
        return out


def parse_slot(raw: bytes, value_bytes: int) -> Tuple[int, int, bytes]:
    """Decode a slot image fetched by a one-sided READ."""
    lock, version = _HDR.unpack_from(raw, 0)
    return lock, version, bytes(raw[VAL_OFF:VAL_OFF + value_bytes])


def pack_install(version: int, value: bytes) -> bytes:
    """The one-sided install image: lock released, version bumped, value."""
    return _HDR.pack(0, version) + value


def parse_header(raw: bytes) -> Tuple[int, int]:
    lock, version = _HDR.unpack_from(raw, 0)
    return lock, version
