"""The common store interface and access-cost reporting.

Backends report how many *random memory accesses* each operation
performed — that is what the server CPU model charges time for (the
paper's HERD numbers: at most 2 per GET, 1 per PUT with MICA).
"""

from __future__ import annotations

import abc
from typing import Optional

#: key width of the fixed-slot tables (cuckoo, hopscotch)
KEY_BYTES = 16
#: default size of a fixed-slot table's value extents, and of the full
#: Pilaf / FaRM servers' registered extent region
EXTENT_BYTES = 1 << 22


def padded_key(key: bytes) -> bytes:
    """A shorter ``key`` zero-padded to ``KEY_BYTES``.  A longer one has
    no slot: packing it through ``16s`` would silently truncate it."""
    if len(key) > KEY_BYTES:
        raise ValueError(
            "key of %d bytes exceeds the %d-byte key width" % (len(key), KEY_BYTES)
        )
    return key.ljust(KEY_BYTES, b"\x00")


class KeyValueStore(abc.ABC):
    """GET/PUT/DELETE over byte keys and byte values."""

    #: number of random memory accesses performed by the last operation;
    #: the CPU model reads this after each call.
    last_op_accesses: int = 0

    @abc.abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key``, or None if absent/evicted."""

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> bool:
        """Insert or overwrite; False only if the store cannot admit it."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; True if it was present."""
