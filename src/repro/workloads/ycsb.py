"""Operation streams: GET/PUT mixes over uniform or Zipfian keys.

The paper's configurations (Section 5.2):

* read-intensive: 95% GET / 5% PUT;  write-intensive: 50% / 50%
* keys are 16-byte keyhashes; a zero keyhash is *never* generated
  because HERD uses a non-zero keyhash to detect new requests
* uniform keys are drawn from the whole keyhash space; skewed keys are
  Zipf(0.99) ranks over an ``n``-key universe, scrambled YCSB-style

Each client process gets its own :class:`WorkloadStream` with a private
seed — mirroring the paper's offline generation of 8M keys for each of
the 51 client processes.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional

from repro.kv.hashing import from_lanes, lanes, mix64, mix64_lanes, to_lanes
from repro.workloads.zipf import ZipfianGenerator

KEYHASH_BYTES = 16


class OpType(enum.Enum):
    GET = "GET"
    PUT = "PUT"


@dataclass(frozen=True)
class Operation:
    """One client operation."""

    op: OpType
    key: bytes          # 16-byte keyhash, never all-zero
    value: Optional[bytes]  # None for GETs
    #: the item id behind the keyhash, when known (lets tests verify
    #: GET responses against the deterministic value function)
    item: int = -1

    @property
    def is_get(self) -> bool:
        return self.op is OpType.GET


def keyhash(item: int) -> bytes:
    """The 16-byte keyhash for item id ``item`` (never zero)."""
    low = mix64(item)
    high = mix64(item ^ 0xDEADBEEF) | 1  # guarantee non-zero
    return low.to_bytes(8, "little") + high.to_bytes(8, "little")


def value_for(item: int, size: int, version: int = 0) -> bytes:
    """A deterministic value body: verifiable end to end."""
    seed = mix64(item * 31 + version)
    pattern = seed.to_bytes(8, "little")
    reps = -(-size // 8)
    return (pattern * reps)[:size]


@dataclass(frozen=True)
class Workload:
    """A workload configuration (one experiment cell)."""

    get_fraction: float = 0.95
    value_size: int = 32
    n_keys: int = 1 << 20
    distribution: str = "uniform"   # "uniform" | "zipfian"
    zipf_theta: float = 0.99

    READ_INTENSIVE = 0.95
    WRITE_INTENSIVE = 0.50

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ValueError("get_fraction must be within [0, 1]")
        if self.distribution not in ("uniform", "zipfian"):
            raise ValueError("unknown distribution %r" % self.distribution)
        if self.value_size < 0 or self.value_size > 1024:
            raise ValueError("values above 1 KB exceed every evaluated system")

    def stream(self, seed: int) -> "WorkloadStream":
        """A per-client operation stream (independent RNG)."""
        return WorkloadStream(self, seed)

    @classmethod
    def ycsb(cls, letter: str, value_size: int = 32, n_keys: int = 1 << 20) -> "Workload":
        """The standard YCSB core workloads the paper's generator comes
        from: A (50/50, zipfian), B (95/5, zipfian), C (read-only,
        zipfian).  The paper's own mixes are A and B over uniform and
        zipfian keys."""
        mixes = {"A": 0.50, "B": 0.95, "C": 1.00}
        letter = letter.upper()
        if letter not in mixes:
            raise ValueError("supported YCSB workloads: A, B, C")
        return cls(
            get_fraction=mixes[letter],
            value_size=value_size,
            n_keys=n_keys,
            distribution="zipfian",
        )


_new_op = Operation.__new__


class WorkloadStream:
    """An endless, deterministic stream of operations for one client.

    Operations are produced in batches of :data:`BATCH`: the RNG draws
    happen in exactly the order the scalar path would make them (so a
    trace is bit-for-bit reproducible from the seed), but the keyhash
    and value synthesis — three splitmix64 rounds per op — run over the
    whole batch at once, one 128-bit lane per op of a Python integer
    (:func:`repro.kv.hashing.mix64_lanes`).  Mixing direct
    :meth:`next_item` calls *between* :meth:`next_op` calls on the same
    uniform stream is unsupported: the batch pre-draws from the shared
    RNG.
    """

    #: ops synthesised per refill; large enough to amortise the lane
    #: arithmetic, small enough that a short run wastes little work
    BATCH = 256

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self._rng = random.Random(mix64(seed ^ 0xC0FFEE))
        self._zipf: Optional[ZipfianGenerator] = None
        if workload.distribution == "zipfian":
            self._zipf = ZipfianGenerator(
                workload.n_keys, theta=workload.zipf_theta, seed=seed, scrambled=True
            )
        self.generated = 0
        self._ops: Deque[Operation] = deque()

    def next_item(self) -> int:
        if self._zipf is not None:
            return self._zipf.next_item()
        return self._rng.randrange(self.workload.n_keys)

    def next_op(self) -> Operation:
        """The next operation in this client's trace."""
        self.generated += 1
        ops = self._ops
        if not ops:
            self._refill()
        return ops.popleft()

    def _refill(self) -> None:
        """Synthesise the next :data:`BATCH` operations in one pass."""
        count = self.BATCH
        workload = self.workload
        get_fraction = workload.get_fraction
        value_size = workload.value_size
        rand = self._rng.random
        if self._zipf is not None:
            # Two independent RNGs; within each, draw order is the
            # scalar order (all zipf draws are u's, all stream draws
            # are GET/PUT coins).
            items = self._zipf.next_items(count)
            coins = [rand() for _ in range(count)]
        else:
            # One shared RNG: preserve the exact per-op interleaving
            # randrange(n), random(), randrange(n), random(), ...
            randrange = self._rng.randrange
            n_keys = workload.n_keys
            items = [0] * count
            coins = [0.0] * count
            for i in range(count):
                items[i] = randrange(n_keys)
                coins[i] = rand()
        x = to_lanes(items)
        # keyhash(): low = mix64(item), high = mix64(item ^ DEADBEEF)|1;
        # lane i of low | high << 64 is key i, little-endian.
        low = mix64_lanes(x, count)
        high = mix64_lanes(x ^ lanes(0xDEADBEEF, count), count) | lanes(1, count)
        keys = from_lanes(low | high << 64, count, "16s")
        # value_for(): pattern = mix64(item * 31), the low half of a lane
        patterns = from_lanes(mix64_lanes(x * 31, count), count, "8s8x")
        reps = -(-value_size // 8)
        append = self._ops.append
        # one field dict per kind, copied into each op's __dict__:
        # cheaper than the frozen dataclass's __init__, or than a new
        # keyword dict per op
        get_fields = {"op": OpType.GET, "key": b"", "value": None, "item": 0}
        put_fields = {"op": OpType.PUT, "key": b"", "value": b"", "item": 0}
        for item, coin, key, pattern in zip(items, coins, keys, patterns):
            op = _new_op(Operation)
            if coin < get_fraction:
                get_fields["key"] = key
                get_fields["item"] = item
                op.__dict__.update(get_fields)
            else:
                put_fields["key"] = key
                put_fields["value"] = (pattern * reps)[:value_size]
                put_fields["item"] = item
                op.__dict__.update(put_fields)
            append(op)

    def __iter__(self) -> Iterator[Operation]:
        while True:
            yield self.next_op()
