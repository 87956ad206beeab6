"""Zipfian sampling, YCSB style.

This is the constant-time Zipfian generator from Gray et al. ("Quickly
generating billion-record synthetic databases", SIGMOD '94) — the exact
algorithm inside YCSB's ``ZipfianGenerator``, which the paper used to
generate its skewed workload (Section 5.2, theta = 0.99).

YCSB's ``ScrambledZipfianGenerator`` additionally hashes the Zipfian
*rank* so the popular items are scattered uniformly over the keyspace
instead of clustering at low ids; we reproduce that with
:func:`repro.kv.hashing.mix64`.  Scattering is what makes HERD's
keyhash-partitioned server resistant to skew (Section 5.7): the hot keys
land on different partitions.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import repeat
from typing import List

from repro import _pairwise_sum
from repro.kv.hashing import from_lanes, mix64, mix64_lanes, to_lanes

#: terms per pairwise-summed chunk of :func:`zeta`
_ZETA_CHUNK = 10_000_000
#: the skew of every Zipfian workload: YCSB's default, the paper's
#: Section 5.2
ZIPF_THETA = 0.99


@lru_cache(maxsize=64)
def zeta(n: int, theta: float) -> float:
    """The generalized harmonic number sum_{i=1..n} 1/i^theta.

    Each term is Python's correctly rounded ``i ** -theta``, and the
    terms are summed in NumPy's pairwise order, 10M at a time, so the
    sum is the same double as ``np.sum`` of the same terms (the test
    oracle) on every machine.  Memoised: every client's
    stream builds its own :class:`ZipfianGenerator`, and one HERD
    cluster runs 51 of them over the same ``(n, theta)``.
    """
    power = -theta

    def terms(lo: int, hi: int) -> List[float]:
        return list(map(pow, range(lo + 1, hi + 1), repeat(power)))

    total = 0.0
    for start in range(0, n, _ZETA_CHUNK):
        total += _pairwise_sum(terms, start, min(_ZETA_CHUNK, n - start))
    return total


class ZipfianGenerator:
    """Draw ranks in ``[0, n)`` with P(rank) proportional to
    1/(rank+1)^theta; items are the ranks scrambled over the keyspace."""

    def __init__(self, n: int, theta: float = ZIPF_THETA, seed: int = 0) -> None:
        if n < 2:
            raise ValueError("need at least two items")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1) for this sampler")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = zeta(n, theta)
        self._zeta2 = zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self._zeta2 / self._zetan)
        self._half_pow_theta = 1.0 + 0.5 ** theta

    def next_rank(self) -> int:
        """One Zipfian rank (0 is the most popular)."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._half_pow_theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def next_item(self) -> int:
        """An item id: the rank, scrambled over the keyspace."""
        return mix64(self.next_rank()) % self.n

    def next_items(self, count: int) -> List[int]:
        """``count`` consecutive :meth:`next_item` draws, batched.

        Consumes exactly ``count`` draws from the same RNG stream and
        returns bit-for-bit the items the scalar method would have: the
        rank transform stays scalar (so the ``**`` uses the very same
        libm ``pow``), while the mix64 scramble — the expensive half —
        runs over all ``count`` ranks in one pass.
        """
        rand = self._rng.random
        zetan = self._zetan
        half = self._half_pow_theta
        eta = self._eta
        alpha = self._alpha
        n = self.n
        ranks = [0] * count
        for i in range(count):
            u = rand()
            uz = u * zetan
            if uz < 1.0:
                continue
            if uz < half:
                ranks[i] = 1
            else:
                ranks[i] = int(n * (eta * u - eta + 1.0) ** alpha)
        mixed = from_lanes(mix64_lanes(to_lanes(ranks), count), count)
        return [m % n for m in mixed]

    def probability_of_rank(self, rank: int) -> float:
        """Analytic P(rank) under the target distribution."""
        return (1.0 / (rank + 1) ** self.theta) / self._zetan
