"""The RNIC's on-chip queue-pair context cache.

RNICs keep very little SRAM for address translation and QP state
(Section 3.3, citing [26]).  When the set of *active* queue pairs
outgrows this cache, every verb can incur a PCIe fetch of the context,
which is what collapses outbound WRITE throughput in the all-to-all
experiment (Figure 6) and bends HERD's scaling curve past ~260 clients
(Figure 12).

We model the cache with **random replacement** (as NIC SRAM caches
effectively behave under cyclic access; LRU would thrash 0-or-100%).
Requester-side contexts are heavier than responder-side ones — the
paper's explanation for why inbound WRITEs scale while outbound ones do
not — so entries have per-role unit sizes.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable

from repro.hw.params import HardwareProfile


class QpContextCache:
    """Fixed-capacity context cache with random replacement."""

    def __init__(self, profile: HardwareProfile, seed: int = 0) -> None:
        self.profile = profile
        self.capacity = profile.qp_cache_units
        self._rng = random.Random(seed)
        self._entries: Dict[Hashable, int] = {}  # key -> units
        # Parallel structures for O(1) random victim selection.
        self._keys: list = []
        self._key_index: Dict[Hashable, int] = {}
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, key: Hashable, requester: bool) -> bool:
        """Touch the context for ``key``; returns True on a hit.

        A miss inserts the context, evicting random victims until it
        fits.  The caller adds :attr:`HardwareProfile.qp_cache_miss_ns`
        of engine occupancy on a miss.
        """
        if key in self._entries:
            self.hits += 1
            return True
        self.misses += 1
        units = (
            self.profile.qp_requester_units
            if requester
            else self.profile.qp_responder_units
        )
        if units > self.capacity:
            raise ValueError("context larger than the whole cache")
        while self._used + units > self.capacity:
            self._evict_random()
        self._entries[key] = units
        self._key_index[key] = len(self._keys)
        self._keys.append(key)
        self._used += units
        return False

    def access_ns(self, key: Hashable, requester: bool) -> float:
        """Touch the context for ``key``; returns the engine occupancy it adds.

        What the NIC datapath asks once per WQE and once per packet:
        0.0 on a hit (one dict probe), the role's miss penalty after
        :meth:`access` has inserted the context otherwise.
        """
        if key in self._entries:
            self.hits += 1
            return 0.0
        self.access(key, requester)
        return self.miss_penalty_ns(False, requester)

    def _evict_random(self) -> None:
        """Remove one random resident context (O(1) swap-pop)."""
        slot = self._rng.randrange(len(self._keys))
        victim = self._keys[slot]
        last = self._keys[-1]
        self._keys[slot] = last
        self._key_index[last] = slot
        self._keys.pop()
        del self._key_index[victim]
        self._used -= self._entries.pop(victim)
        self.evictions += 1

    def miss_penalty_ns(self, hit: bool, requester: bool = False) -> float:
        """Extra engine occupancy implied by an access outcome.

        A missed requester context costs more to fetch than a missed
        responder context because it is larger — the same asymmetry
        that makes inbound WRITEs scale while outbound ones collapse
        (Figure 6).
        """
        if hit:
            return 0.0
        units = (
            self.profile.qp_requester_units
            if requester
            else self.profile.qp_responder_units
        )
        return units * self.profile.qp_cache_miss_ns_per_unit

    @property
    def used_units(self) -> int:
        return self._used

    @property
    def resident_contexts(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

