"""Registered memory regions: real bytes behind remote addresses.

A :class:`MemoryRegion` owns an anonymous private memory mapping; RDMA
WRITEs copy real bytes into it and READs copy real bytes out, with rkey
and bounds checks.  Registering a length reserves address space only:
the kernel supplies a zero page the first time one is written, so a
region costs resident memory for what was touched, not for what was
registered (a ``bytearray`` zero-fills, i.e. touches, every page up
front).  Regions are registered with a per-machine :class:`MrTable`
that assigns non-overlapping virtual addresses (page aligned, like a
real registration) and resolves incoming ``(raddr, rkey)`` pairs.
"""

from __future__ import annotations

import mmap
from typing import Dict

PAGE = 4096


class MrAccessError(Exception):
    """Bad rkey, or an access outside the region's bounds."""


class MemoryRegion:
    """A registered buffer addressable by local offset or remote addr."""

    __slots__ = ("addr", "length", "lkey", "rkey", "buf", "on_write")

    def __init__(self, addr: int, length: int, lkey: int, rkey: int) -> None:
        self.addr = addr
        self.length = length
        self.lkey = lkey
        self.rkey = rkey
        # ACCESS_COPY makes the mapping private: the default for an
        # anonymous mmap is MAP_SHARED, which a forked worker would
        # share with its parent.  Slicing returns ``bytes``; a slice
        # assignment of the wrong size raises instead of resizing.
        self.buf = mmap.mmap(-1, length, access=mmap.ACCESS_COPY)
        #: optional observer fn(offset, length) fired when an *incoming
        #: RDMA WRITE* lands (after its DMA); used for polled regions
        #: such as HERD's request region and FaRM's circular buffers.
        self.on_write = None

    # -- local access (by offset) -----------------------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Copy ``data`` into the region at ``offset``."""
        if offset < 0 or offset + len(data) > self.length:
            raise MrAccessError(
                "write [%d, %d) outside region of %d bytes"
                % (offset, offset + len(data), self.length)
            )
        self.buf[offset : offset + len(data)] = data

    def read(self, offset: int, length: int) -> bytes:
        """Copy ``length`` bytes out of the region at ``offset``."""
        if offset < 0 or length < 0 or offset + length > self.length:
            raise MrAccessError(
                "read [%d, %d) outside region of %d bytes"
                % (offset, offset + length, self.length)
            )
        return self.buf[offset : offset + length]

    # -- remote access (by virtual address) --------------------------------

    def offset_of(self, raddr: int) -> int:
        """Translate a remote virtual address to a region offset."""
        offset = raddr - self.addr
        if offset < 0 or offset >= self.length:
            raise MrAccessError(
                "address %#x outside region [%#x, %#x)"
                % (raddr, self.addr, self.addr + self.length)
            )
        return offset


class MrTable:
    """One machine's registration table (rkey -> region)."""

    def __init__(self) -> None:
        self._by_rkey: Dict[int, MemoryRegion] = {}
        self._next_addr = PAGE  # never hand out address 0
        self._next_key = 1

    def register(self, length: int) -> MemoryRegion:
        """Register a fresh buffer of ``length`` bytes."""
        if length <= 0:
            raise ValueError("region length must be positive")
        lkey = self._next_key
        rkey = self._next_key
        self._next_key += 1
        mr = MemoryRegion(self._next_addr, length, lkey, rkey)
        # Page-align the next registration, like a real pin + map.
        self._next_addr += ((length + PAGE - 1) // PAGE) * PAGE
        self._by_rkey[rkey] = mr
        return mr

    def resolve(self, raddr: int, rkey: int, length: int) -> MemoryRegion:
        """Find the region for an incoming RDMA access; validate bounds."""
        mr = self._by_rkey.get(rkey)
        if mr is None:
            raise MrAccessError("unknown rkey %d" % rkey)
        offset = mr.offset_of(raddr)
        if offset + length > mr.length:
            raise MrAccessError(
                "access [%#x, %#x) overruns region" % (raddr, raddr + length)
            )
        return mr
