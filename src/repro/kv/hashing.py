"""Deterministic 64-bit mixing for hash-table placement.

CRC32 is *linear* over GF(2), so two differently-salted CRCs of the same
key differ by a constant — fatal for cuckoo hashing, whose K candidate
buckets must be (close to) independent.  ``mix64`` is the splitmix64
finalizer: cheap, deterministic across processes, and properly
avalanching.
"""

from __future__ import annotations

import struct

import numpy as np

_MASK = (1 << 64) - 1
_TWO_WORDS = struct.Struct("<QQ")


def mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche all 64 bits of ``x``."""
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def mix64_array(x: "np.ndarray") -> "np.ndarray":
    """Vectorised :func:`mix64` over a ``uint64`` array.

    ``uint64`` arithmetic wraps modulo 2**64, which is exactly the
    ``& _MASK`` in the scalar version, so the two agree bit for bit.
    The workload generator leans on this to synthesise keyhashes and
    values in batches.
    """
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


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
