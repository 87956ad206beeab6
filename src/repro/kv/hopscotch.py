"""FaRM-KV's backend: hopscotch hashing with a locality-aware layout.

Section 5.1.2: FaRM-KV uses a hopscotch variant that guarantees a
key-value pair is stored within a small *neighborhood* of the bucket
the key hashes to; the authors set the neighborhood to 6.  A client
GET then needs just one READ of the 6 consecutive slots — that is,
``6 * (key + value)`` bytes in inline mode, or ``6 * (key + pointer)``
plus a second READ of the value in out-of-table ("VAR") mode.

The table is a flat ``bytearray`` so it can live inside a registered
memory region; :meth:`neighborhood_span` gives the byte range a FaRM
client READs, and :meth:`parse_neighborhood` decodes it client-side.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Tuple

from repro.kv.interface import EXTENT_BYTES, KEY_BYTES, KeyValueStore, padded_key

#: slot header: 16-byte key, u16 value length, u16 flags
_SLOT_HEADER = struct.Struct("<16sHH")
_FLAG_OCCUPIED = 1

#: out-of-table slot: header + u32 extent pointer
_VAR_SLOT = struct.Struct("<16sHHI")


class HopscotchFullError(Exception):
    """No displacement sequence could keep the neighborhood invariant."""


class HopscotchTable(KeyValueStore):
    """Neighborhood-H hopscotch hash table (H = 6 as in FaRM)."""

    NEIGHBORHOOD = 6
    MAX_PROBE = 512  # how far insert may look for a free slot

    def __init__(
        self,
        n_slots: int = 2 ** 14,
        value_capacity: int = 64,
        inline: bool = True,
        extent_bytes: int = EXTENT_BYTES,
        table_buffer: bytearray = None,
        extent_buffer: bytearray = None,
    ) -> None:
        """``table_buffer`` / ``extent_buffer`` let the table live inside
        an externally owned buffer — e.g. a registered memory region, so
        remote clients can READ neighborhoods directly (as FaRM does)."""
        self.n_slots = 1 << (n_slots - 1).bit_length()
        self.inline = inline
        self.value_capacity = value_capacity
        #: what the head of a slot decodes as: (key, vlen, flags[, ptr])
        self._slot = _SLOT_HEADER if inline else _VAR_SLOT
        self.slot_bytes = self.slot_size(value_capacity, inline)
        if table_buffer is None:
            table_buffer = bytearray(self.n_slots * self.slot_bytes)
        if len(table_buffer) < self.n_slots * self.slot_bytes:
            raise ValueError("table buffer too small for %d slots" % self.n_slots)
        self.table = table_buffer
        if extent_buffer is None:
            extent_buffer = bytearray(extent_bytes if not inline else 0)
        self.extents = extent_buffer
        self._extent_tail = 0
        self.items = 0
        self.displacements = 0
        self.last_op_accesses = 0

    # -- layout ---------------------------------------------------------

    @staticmethod
    def slot_size(value_capacity: int, inline: bool) -> int:
        """Bytes per slot: header + value inline, header + pointer VAR."""
        return _SLOT_HEADER.size + value_capacity if inline else _VAR_SLOT.size

    def home_of(self, key: bytes) -> int:
        if len(key) != KEY_BYTES:
            key = padded_key(key)
        return zlib.crc32(key, 0x5BD1E995) % self.n_slots

    def neighborhood_span(self, key: bytes) -> Tuple[int, int]:
        """(offset, length) of the bytes a FaRM client READs for ``key``.

        The neighborhood may wrap; the returned length is always
        ``NEIGHBORHOOD * slot_bytes`` (a wrapped read is two segments on
        a real system; the emulation prices it as one read of that size,
        as the paper does).
        """
        return self.home_of(key) * self.slot_bytes, self.NEIGHBORHOOD * self.slot_bytes

    def read_neighborhood(self, key: bytes) -> bytes:
        """The actual bytes of the 6 neighborhood slots (wrap-aware)."""
        offset, length = self.neighborhood_span(key)
        wrapped = offset + length - self.n_slots * self.slot_bytes
        if wrapped <= 0:
            return bytes(self.table[offset : offset + length])
        # what runs off the end of the table is at its start
        return bytes(self.table[offset : offset + length - wrapped]) + bytes(
            self.table[:wrapped]
        )

    def parse_neighborhood(self, key: bytes, data: bytes) -> Optional[Tuple[bytes, int]]:
        """Client-side decode of neighborhood bytes.

        Inline mode returns ``(value, -1)``; VAR mode returns
        ``(b"", extent_pointer)`` and the client issues a second READ.
        """
        if len(key) != KEY_BYTES:
            key = padded_key(key)
        for offset in range(0, self.NEIGHBORHOOD * self.slot_bytes, self.slot_bytes):
            slot = self._slot.unpack_from(data, offset)
            if slot[2] & _FLAG_OCCUPIED and slot[0] == key:
                if not self.inline:
                    return b"", slot[3]
                offset += _SLOT_HEADER.size
                return bytes(data[offset : offset + slot[1]]), -1
        return None

    # -- slot access ------------------------------------------------------

    def _head(self, slot: int) -> tuple:
        """The decoded head of ``slot``: (key, vlen, flags[, ptr])."""
        return self._slot.unpack_from(self.table, slot * self.slot_bytes)

    def _find(self, key: bytes) -> Optional[Tuple[int, tuple]]:
        """Scan ``key``'s neighborhood — one locality-friendly access —
        for its ``(slot, decoded head)``."""
        if len(key) != KEY_BYTES:
            key = padded_key(key)
        home = self.home_of(key)
        self.last_op_accesses = 1
        unpack_from, table, slot_bytes = self._slot.unpack_from, self.table, self.slot_bytes
        for slot in range(home, home + self.NEIGHBORHOOD):
            slot %= self.n_slots
            head = unpack_from(table, slot * slot_bytes)
            if head[2] & _FLAG_OCCUPIED and head[0] == key:
                return slot, head
        return None

    def _store(
        self, slot: int, key: bytes, value: bytes, ptr: int = 0, occupied: bool = True
    ) -> None:
        flags = _FLAG_OCCUPIED if occupied else 0
        offset = slot * self.slot_bytes
        if self.inline:
            packed = _SLOT_HEADER.pack(key, len(value), flags)
            body = value.ljust(self.value_capacity, b"\x00")
            self.table[offset : offset + self.slot_bytes] = packed + body
        else:
            _VAR_SLOT.pack_into(self.table, offset, key, len(value), flags, ptr)

    def _inline_value_at(self, slot: int, vlen: int) -> bytes:
        offset = slot * self.slot_bytes + _SLOT_HEADER.size
        return bytes(self.table[offset : offset + vlen])

    # -- extents (VAR mode) -------------------------------------------------

    def _alloc_value(self, value: bytes) -> int:
        if self._extent_tail + len(value) > len(self.extents):
            raise HopscotchFullError("extent space exhausted")
        ptr = self._extent_tail
        self.extents[ptr : ptr + len(value)] = value
        self._extent_tail += len(value)
        return ptr

    def read_extent(self, ptr: int, length: int) -> bytes:
        return bytes(self.extents[ptr : ptr + length])

    # -- KV interface -----------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        found = self._find(key)
        if found is None:
            return None
        slot, head = found
        if self.inline:
            return self._inline_value_at(slot, head[1])
        self.last_op_accesses = 2
        return self.read_extent(head[3], head[1])

    def put(self, key: bytes, value: bytes) -> bool:
        if len(key) != KEY_BYTES:
            key = padded_key(key)
        if len(value) > self.value_capacity and self.inline:
            raise ValueError(
                "value of %d bytes exceeds inline capacity %d"
                % (len(value), self.value_capacity)
            )
        found = self._find(key)
        if found is not None:
            self._write_item(found[0], key, value)  # overwrite in place
            return True
        home = self.home_of(key)
        free = self._find_free_slot(home)
        if free is None:
            raise HopscotchFullError("no free slot within probe range")
        # Hopscotch displacement: move the free slot into the neighborhood.
        while self._distance(home, free) >= self.NEIGHBORHOOD:
            free = self._displace_toward(home, free)
        self._write_item(free, key, value)
        self.items += 1
        return True

    def _write_item(self, slot: int, key: bytes, value: bytes) -> None:
        if self.inline:
            self._store(slot, key, value)
        else:
            ptr = self._alloc_value(value)
            self._store(slot, key, value, ptr=ptr)

    def _distance(self, home: int, slot: int) -> int:
        return (slot - home) % self.n_slots

    def _find_free_slot(self, home: int) -> Optional[int]:
        for i in range(min(self.MAX_PROBE, self.n_slots)):
            slot = (home + i) % self.n_slots
            if not self._head(slot)[2] & _FLAG_OCCUPIED:
                return slot
        return None

    def _displace_toward(self, home: int, free: int) -> int:
        """Move ``free`` at least one step closer to ``home``.

        Look at the H-1 slots before ``free``: any resident item whose
        own home still covers ``free`` can hop into it, freeing an
        earlier slot.  Raises when no item can move (table too dense).
        """
        for back in range(self.NEIGHBORHOOD - 1, 0, -1):
            candidate = (free - back) % self.n_slots
            head = self._head(candidate)
            key, vlen = head[0], head[1]
            if not head[2] & _FLAG_OCCUPIED:
                continue
            item_home = self.home_of(key)
            if self._distance(item_home, free) < self.NEIGHBORHOOD:
                # Hop: move the candidate's item into the free slot.
                if self.inline:
                    self._store(free, key, self._inline_value_at(candidate, vlen))
                else:
                    # Move the pointer; the header keeps the true length.
                    self._store(free, key, b"\x00" * vlen, ptr=head[3])
                self._store(candidate, b"\x00" * KEY_BYTES, b"", occupied=False)
                self.displacements += 1
                return candidate
        raise HopscotchFullError("displacement impossible; rebuild required")

    def delete(self, key: bytes) -> bool:
        found = self._find(key)
        if found is None:
            return False
        self._store(found[0], b"\x00" * KEY_BYTES, b"", occupied=False)
        self.items -= 1
        return True
