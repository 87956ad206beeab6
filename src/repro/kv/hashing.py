"""Deterministic 64-bit mixing for hash-table placement.

CRC32 is *linear* over GF(2), so two differently-salted CRCs of the same
key differ by a constant — fatal for cuckoo hashing, whose K candidate
buckets must be (close to) independent.  ``mix64`` is the splitmix64
finalizer: cheap, deterministic across processes, and properly
avalanching.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, Sequence, Tuple

_MASK = (1 << 64) - 1
_TWO_WORDS = struct.Struct("<QQ")


def mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche all 64 bits of ``x``."""
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


# Many words at once, without numpy: ``count`` 64-bit words ride in one
# Python integer, word ``i`` in the low half of the 128-bit *lane* ``i``
# (bits 128 i .. 128 i + 127).  A 64 x 64-bit product fits in a lane,
# so one big-integer multiply is ``count`` independent ones, and a mask
# after every shift drops the bits it pulled down from the lane above.


@lru_cache(maxsize=16)
def lanes(word: int, count: int) -> int:
    """``word`` (below 2**64) in each of ``count`` lanes."""
    return int.from_bytes(struct.pack("<Q8x", word) * count, "little")


@lru_cache(maxsize=16)
def _lane_format(fmt: str, count: int) -> struct.Struct:
    return struct.Struct("<" + fmt * count)


def to_lanes(words: Sequence[int]) -> int:
    """``words`` (each in ``[0, 2**64)``), one per lane."""
    return int.from_bytes(_lane_format("Q8x", len(words)).pack(*words), "little")


def from_lanes(x: int, count: int, fmt: str = "Q8x") -> Tuple[Any, ...]:
    """The ``count`` lanes of ``x``, each read with the 16-byte
    ``struct`` format ``fmt``: by default the low 64 bits as an
    integer; ``"16s"`` gives each whole lane as bytes, ``"8s8x"`` its
    low half."""
    return _lane_format(fmt, count).unpack(x.to_bytes(count << 4, "little"))


def mix64_lanes(x: int, count: int) -> int:
    """:func:`mix64` of every lane of ``x`` at once, bit for bit."""
    mask = lanes(_MASK, count)
    x &= mask
    x = (x ^ (x >> 30)) & mask
    x = x * 0xBF58476D1CE4E5B9 & mask
    x = (x ^ (x >> 27)) & mask
    x = x * 0x94D049BB133111EB & mask
    return (x ^ (x >> 31)) & mask


#: ``mix64(salt * golden ratio)`` for the salts the tables use
_SALT_SEEDS = tuple(mix64(salt * 0x9E3779B97F4A7C15) for salt in range(8))


def hash_key(key: bytes, salt: int = 0) -> int:
    """A salted 64-bit hash of ``key``; distinct salts are independent."""
    if 0 <= salt < len(_SALT_SEEDS):
        h = _SALT_SEEDS[salt]
    else:
        h = mix64(salt * 0x9E3779B97F4A7C15)
    if len(key) == 16:
        # The tables' key width: the loop below, unrolled for two words
        # (both operands of each XOR are already below 2**64).
        low, high = _TWO_WORDS.unpack(key)
        x = h ^ low
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
        x ^= (x >> 31) ^ high
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
        return x ^ (x >> 31)
    # Mix each 64-bit chunk in (a plain XOR-fold would cancel repeated
    # chunks, colliding keys like b"x"*64 and b"y"*64).
    for offset in range(0, len(key), 8):
        chunk = int.from_bytes(key[offset : offset + 8], "little")
        h = mix64(h ^ chunk)
    return h
