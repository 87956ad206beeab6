"""MICA cache mode: a lossy associative index over a circular log.

This is HERD's backend (Section 4.1).  The design, from MICA [18]:

* The **circular log** stores items back to back in a flat buffer.
  Appending past the end wraps around, silently evicting the oldest
  items in FIFO order — memory efficient, fragmentation free, and no
  garbage collection.
* The **lossy index** maps a key's hash to the log position of its most
  recent entry.  Buckets are set-associative; inserting into a full
  bucket evicts an existing index entry (hence "lossy" — the cache may
  forget items early).

A GET costs at most two random memory accesses (index bucket, then log
entry); a PUT costs one (the log append is sequential, the index update
touches one bucket).  HERD relies on exactly these counts to size its
prefetch pipeline.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from typing import List, Optional, Tuple

from repro.kv.interface import KeyValueStore

#: log entry header: u16 key length, u16 value length
_HEADER = struct.Struct("<HH")


class CircularLog:
    """An append-only byte log that overwrites its oldest content.

    The buffer is an anonymous private mapping, like a registered
    region's (:mod:`repro.verbs.mr`): ``capacity`` is address space, and
    only the pages appends have reached are resident.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 16:
            raise ValueError("log capacity unreasonably small")
        self.capacity = capacity
        self.buf = mmap.mmap(-1, capacity, access=mmap.ACCESS_COPY)
        #: total bytes ever appended (monotonic "log position")
        self.tail = 0
        self.wraps = 0

    def append(self, key: bytes, value: bytes) -> int:
        """Append an entry; returns its (monotonic) log position."""
        entry = _HEADER.pack(len(key), len(value)) + key + value
        if len(entry) > self.capacity:
            raise ValueError("entry larger than the whole log")
        pos = self.tail
        offset = pos % self.capacity
        first = min(len(entry), self.capacity - offset)
        self.buf[offset : offset + first] = entry[:first]
        if first < len(entry):
            self.buf[0 : len(entry) - first] = entry[first:]
            self.wraps += 1
        self.tail += len(entry)
        return pos

    def alive(self, pos: int, length: int) -> bool:
        """Whether no byte of ``[pos, pos + length)`` has been overwritten."""
        return pos >= self.tail - self.capacity and pos + length <= self.tail

    def read(self, pos: int) -> Optional[Tuple[bytes, bytes]]:
        """Read the (key, value) at ``pos``; None if overwritten."""
        if pos < self.tail - self.capacity or pos + _HEADER.size > self.tail:
            return None
        offset = pos % self.capacity
        if offset + _HEADER.size <= self.capacity:
            key_len, value_len = _HEADER.unpack_from(self.buf, offset)
        else:
            key_len, value_len = _HEADER.unpack(self._read_bytes(pos, _HEADER.size))
        total = _HEADER.size + key_len + value_len
        if pos + total > self.tail:
            return None  # not the position of an entry
        if offset + total <= self.capacity:
            split = offset + _HEADER.size + key_len
            return self.buf[offset + _HEADER.size : split], self.buf[split : offset + total]
        body = self._read_bytes(pos + _HEADER.size, key_len + value_len)
        return body[:key_len], body[key_len:]

    def _read_bytes(self, pos: int, length: int) -> bytes:
        offset = pos % self.capacity
        first = min(length, self.capacity - offset)
        out = self.buf[offset : offset + first]
        if first < length:
            out += self.buf[0 : length - first]
        return out


class MicaCache(KeyValueStore):
    """Lossy associative index + circular log (MICA's cache mode).

    ``index_entries`` is the number of keys the index can hold
    (the paper's HERD uses 64 Mi per server process with a 4 GB log;
    scale both down for simulation).

    MICA also offers *store* semantics (Section 2.1: "provides both
    cache and store semantics"); ``mode="store"`` turns off both kinds
    of eviction — a full bucket or a full log rejects the PUT instead
    of silently dropping older items.
    """

    SLOTS_PER_BUCKET = 8

    def __init__(
        self,
        index_entries: int = 2 ** 16,
        log_bytes: int = 1 << 22,
        mode: str = "cache",
    ) -> None:
        if mode not in ("cache", "store"):
            raise ValueError("mode must be 'cache' or 'store'")
        if not (index_entries >= 1):  # also rejects NaN
            raise ValueError("index_entries must be >= 1; got %r" % (index_entries,))
        self.mode = mode
        n_buckets = max(1, index_entries // self.SLOTS_PER_BUCKET)
        # Power-of-two bucket count for mask indexing.
        self.n_buckets = 1 << (n_buckets - 1).bit_length()
        # buckets[i] is a list of (tag, log position) pairs, newest last;
        # None until the bucket's first PUT: an unused bucket costs its
        # 8 B pointer, not the ~64 B of an empty list
        self.buckets: List[Optional[List[Tuple[bytes, int]]]] = [None] * self.n_buckets
        self.log = CircularLog(log_bytes)
        self.last_op_accesses = 0
        # statistics
        self.hits = 0
        self.misses = 0
        self.index_evictions = 0
        self.lost_to_wrap = 0
        self.rejected_puts = 0

    def _bucket_of(self, key: bytes) -> int:
        # HERD keys are already 16-byte keyhashes, but hash here anyway
        # so arbitrary byte keys spread well too.
        return zlib.crc32(key) & (self.n_buckets - 1)

    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Index lookup, then log read: at most 2 random accesses."""
        self.last_op_accesses = 1
        bucket = self.buckets[self._bucket_of(key)] or ()
        for tag, pos in bucket:
            if tag == key:
                self.last_op_accesses = 2
                entry = self.log.read(pos)
                if entry is not None and entry[0] == key:
                    self.hits += 1
                    return entry[1]
                # The log wrapped past this entry: stale index slot.
                bucket.remove((tag, pos))
                self.lost_to_wrap += 1
                break
        self.misses += 1
        return None

    def put(self, key: bytes, value: bytes) -> bool:
        """Append to the log and update one index bucket: 1 random access."""
        self.last_op_accesses = 1
        index = self._bucket_of(key)
        bucket = self.buckets[index]
        if bucket is None:
            bucket = self.buckets[index] = []
        overwrite_index = None
        for i, (tag, _old) in enumerate(bucket):
            if tag == key:
                overwrite_index = i
                break
        if self.mode == "store":
            # Store semantics: never lose data.  Reject on a full
            # bucket or when the append would overwrite live entries.
            if overwrite_index is None and len(bucket) >= self.SLOTS_PER_BUCKET:
                self.rejected_puts += 1
                return False
            entry_size = 4 + len(key) + len(value)
            if self.log.tail + entry_size > self.log.capacity:
                self.rejected_puts += 1
                return False
        pos = self.log.append(key, value)
        if overwrite_index is not None:
            bucket[overwrite_index] = (key, pos)
            return True
        if len(bucket) >= self.SLOTS_PER_BUCKET:
            # Lossy index (cache mode): evict the oldest bucket entry.
            bucket.pop(0)
            self.index_evictions += 1
        bucket.append((key, pos))
        return True

    def delete(self, key: bytes) -> bool:
        self.last_op_accesses = 1
        bucket = self.buckets[self._bucket_of(key)] or ()
        for i, (tag, _pos) in enumerate(bucket):
            if tag == key:
                bucket.pop(i)
                return True
        return False

    def items(self):
        """Iterate live ``(key, value)`` pairs (newest value per key).

        Walks the index buckets and reads each entry out of the log,
        skipping slots the log has wrapped past — the scan a migration
        snapshot (repro.elastic) performs over a partition's store.
        """
        for bucket in filter(None, self.buckets):
            for tag, pos in list(bucket):
                entry = self.log.read(pos)
                if entry is not None and entry[0] == tag:
                    yield tag, entry[1]
