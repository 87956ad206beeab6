"""Pilaf's backend: 3-way, 1-slot cuckoo hashing with self-verifying buckets.

Section 5.1.1: Pilaf uses 3-1 cuckoo hashing (each key may live in one
of 3 buckets, one slot per bucket) at 75% memory efficiency, with 1.6
bucket probes per GET on average.  Buckets are *self-verifying*: each
carries a 64-bit checksum so that a client reading the table with RDMA
can detect a torn read caused by a concurrent PUT; values live in flat
"extents" whose entries carry their own checksum.

The whole table is a flat ``bytearray`` (32-byte buckets), so it can be
placed inside a registered memory region and traversed by remote READs:
:meth:`bucket_span` says which bytes a client must read, and
:meth:`parse_bucket` decodes them exactly as a Pilaf client would.
"""

from __future__ import annotations

import struct
import zlib
from random import Random
from typing import List, Optional, Tuple

from repro.kv.hashing import hash_key
from repro.kv.interface import EXTENT_BYTES, KEY_BYTES, KeyValueStore, padded_key

BUCKET_BYTES = 32
#: bucket: 16-byte key, u32 extent pointer, u16 value length, u16 flags,
#: u64 checksum -> 32 bytes, matching the paper's alignment assumption.
_BUCKET = struct.Struct("<16sIHHQ")
_FLAG_OCCUPIED = 1

_CHECKSUM = struct.Struct("<Q")
_CHECKSUM_AT = BUCKET_BYTES - _CHECKSUM.size

#: extent entry header: u64 value checksum, u16 value length
_EXTENT = struct.Struct("<QH")


def checksum64(data: bytes) -> int:
    """A cheap deterministic 64-bit checksum (two CRC32 halves)."""
    return zlib.crc32(data) | (zlib.crc32(data, 0xFFFFFFFF) << 32)


class CuckooFullError(Exception):
    """Insertion failed after the relocation budget was exhausted."""


class CuckooTable(KeyValueStore):
    """3-1 cuckoo hash table with checksummed buckets and extents."""

    HASHES = 3
    MAX_KICKS = 500

    def __init__(
        self,
        n_buckets: int = 2 ** 14,
        extent_bytes: int = EXTENT_BYTES,
        seed: int = 0,
        table_buffer: bytearray = None,
        extent_buffer: bytearray = None,
    ) -> None:
        """``table_buffer`` / ``extent_buffer`` let the table live inside
        an externally owned buffer — e.g. a registered memory region, so
        remote clients can traverse it with RDMA READs (as Pilaf does)."""
        self.n_buckets = 1 << (n_buckets - 1).bit_length()
        if table_buffer is None:
            table_buffer = bytearray(self.n_buckets * BUCKET_BYTES)
        if len(table_buffer) < self.n_buckets * BUCKET_BYTES:
            raise ValueError("table buffer too small for %d buckets" % self.n_buckets)
        self.table = table_buffer
        if extent_buffer is None:
            extent_buffer = bytearray(extent_bytes)
        self.extents = extent_buffer
        self._extent_tail = 0
        self._rng = Random(seed)
        self.items = 0
        self.last_op_accesses = 0
        self.last_op_probes = 0
        self.total_probes = 0
        self.total_gets = 0
        self.kicks = 0

    # -- hashing / layout ---------------------------------------------------

    def buckets_for(self, key: bytes) -> List[int]:
        """The 3 candidate bucket indices for ``key`` (orthogonal hashes)."""
        if len(key) != KEY_BYTES:
            key = padded_key(key)
        return [hash_key(key, salt) % self.n_buckets for salt in range(self.HASHES)]

    def bucket_span(self, index: int) -> Tuple[int, int]:
        """(offset, length) of bucket ``index`` within the table buffer."""
        return index * BUCKET_BYTES, BUCKET_BYTES

    def read_bucket(self, index: int) -> bytes:
        offset, length = self.bucket_span(index)
        return bytes(self.table[offset : offset + length])

    @staticmethod
    def parse_bucket(data: bytes) -> Optional[Tuple[bytes, int, int]]:
        """Decode bucket bytes -> (key, extent pointer, value length).

        Returns None for an empty bucket.  Raises ``ValueError`` if the
        checksum does not match — a torn read under a concurrent PUT,
        which a Pilaf client handles by retrying.
        """
        key, ptr, vlen, flags, cksum = _BUCKET.unpack_from(data)
        if not flags & _FLAG_OCCUPIED:
            return None
        expect = checksum64(_BUCKET.pack(key, ptr, vlen, flags, 0))
        if cksum != expect:
            raise ValueError("bucket checksum mismatch (torn read)")
        return key, ptr, vlen

    def _store_bucket(
        self, index: int, key: bytes, ptr: int, vlen: int, occupied: bool = True
    ) -> None:
        flags = _FLAG_OCCUPIED if occupied else 0
        body = _BUCKET.pack(key, ptr, vlen, flags, 0)
        offset = index * BUCKET_BYTES
        self.table[offset : offset + BUCKET_BYTES] = body
        if occupied:
            # the checksum covers the bucket with a zero checksum field
            _CHECKSUM.pack_into(self.table, offset + _CHECKSUM_AT, checksum64(body))

    def _load_bucket(self, index: int) -> Tuple[bytes, int, int, bool]:
        key, ptr, vlen, flags, _cksum = _BUCKET.unpack_from(
            self.table, index * BUCKET_BYTES
        )
        return key, ptr, vlen, bool(flags & _FLAG_OCCUPIED)

    # -- extents --------------------------------------------------------------

    def _alloc_value(self, value: bytes) -> int:
        entry = _EXTENT.pack(checksum64(value), len(value)) + value
        if self._extent_tail + len(entry) > len(self.extents):
            raise CuckooFullError("extent space exhausted")
        ptr = self._extent_tail
        self.extents[ptr : ptr + len(entry)] = entry
        self._extent_tail += len(entry)
        return ptr

    def read_value(self, ptr: int) -> bytes:
        """Read and verify a value from the extents (as a client would)."""
        cksum, vlen = _EXTENT.unpack_from(self.extents, ptr)
        start = ptr + _EXTENT.size
        value = bytes(self.extents[start : start + vlen])
        if checksum64(value) != cksum:
            raise ValueError("extent checksum mismatch (torn read)")
        return value

    #: bytes of extent-entry header a remote reader must fetch with the value
    EXTENT_HEADER_BYTES = _EXTENT.size

    @staticmethod
    def parse_extent(data: bytes) -> bytes:
        """Decode an extent entry (header + value), verifying its
        checksum — what a Pilaf client does after READing the extent."""
        cksum, vlen = _EXTENT.unpack_from(data)
        value = data[_EXTENT.size : _EXTENT.size + vlen]
        if len(value) != vlen:
            raise ValueError("short extent read")
        if checksum64(value) != cksum:
            raise ValueError("extent checksum mismatch (torn read)")
        return value

    # -- KV interface -----------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Probe up to 3 buckets (1.6 on average at 75% load)."""
        if len(key) != KEY_BYTES:
            key = padded_key(key)
        self.total_gets += 1
        # A salt is hashed only when its bucket is about to be probed.
        for probes in range(1, self.HASHES + 1):
            stored, ptr, _vlen, flags, _cksum = _BUCKET.unpack_from(
                self.table, hash_key(key, probes - 1) % self.n_buckets * BUCKET_BYTES
            )
            if flags & _FLAG_OCCUPIED and stored == key:
                self.last_op_probes = probes
                self.total_probes += probes
                self.last_op_accesses = probes + 1  # + extent read
                return self.read_value(ptr)
        self.last_op_probes = probes
        self.total_probes += probes
        self.last_op_accesses = probes
        return None

    def put(self, key: bytes, value: bytes) -> bool:
        if len(key) != KEY_BYTES:
            key = padded_key(key)
        free = None
        # As in get: the scan ends, and stops hashing, at the key's bucket.
        for salt in range(self.HASHES):
            index = hash_key(key, salt) % self.n_buckets
            stored, _ptr, _vlen, flags, _cksum = _BUCKET.unpack_from(
                self.table, index * BUCKET_BYTES
            )
            if not flags & _FLAG_OCCUPIED:
                if free is None:
                    free = index
            elif stored == key:
                free = index  # overwrite in place
                break
        else:
            if free is None:
                # Cuckoo relocation: kick a random victim along a random walk.
                return self._insert_with_kicks(key, value)
            self.items += 1
        ptr = self._alloc_value(value)
        self._store_bucket(free, key, ptr, len(value))
        self.last_op_accesses = 2
        return True

    def _insert_with_kicks(self, key: bytes, value: bytes) -> bool:
        ptr = self._alloc_value(value)
        cur_key, cur_ptr, cur_vlen = key, ptr, len(value)
        index = self._rng.choice(self.buckets_for(cur_key))
        for kick in range(1, self.MAX_KICKS + 1):
            victim = self._load_bucket(index)
            self._store_bucket(index, cur_key, cur_ptr, cur_vlen)
            self.kicks += 1
            v_key, v_ptr, v_vlen, v_occupied = victim
            if not v_occupied:
                self.items += 1
                self.last_op_accesses = 2 + kick  # approximate
                return True
            cur_key, cur_ptr, cur_vlen = v_key, v_ptr, v_vlen
            # Move the victim to one of its *other* buckets.
            others = [b for b in self.buckets_for(cur_key) if b != index]
            index = self._rng.choice(others) if others else index
            for candidate in others:
                if not self._load_bucket(candidate)[3]:
                    index = candidate
                    break
        raise CuckooFullError("relocation budget exhausted; table too full")

    def delete(self, key: bytes) -> bool:
        if len(key) != KEY_BYTES:
            key = padded_key(key)
        for index in self.buckets_for(key):
            stored, _ptr, _vlen, occupied = self._load_bucket(index)
            if occupied and stored == key:
                self._store_bucket(index, b"\x00" * KEY_BYTES, 0, 0, occupied=False)
                self.items -= 1
                self.last_op_accesses = 1
                return True
        self.last_op_accesses = 1
        return False

    # -- metrics ------------------------------------------------------------------

    def average_probes(self) -> float:
        """Average bucket probes per GET (the paper's 1.6)."""
        if not self.total_gets:
            return 0.0
        return self.total_probes / self.total_gets
