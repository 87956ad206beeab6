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
from typing import Deque, Iterator, Optional, Sequence, Tuple

from repro.kv.hashing import from_lanes, lanes, mix64, mix64_lanes, to_lanes
from repro.workloads.zipf import ZipfianGenerator

KEYHASH_BYTES = 16
#: PUT-value bytes one refill may hold (:attr:`WorkloadStream.BATCH`)
_BATCH_VALUE_BYTES = 32 * 1024


class OpType(enum.Enum):
    GET = "GET"
    PUT = "PUT"


@dataclass(frozen=True, init=False)
class Operation:
    """One client operation.

    Slotted: an op holds four references and no ``__dict__``, 176 B
    less per op.  ``__slots__`` is declared by hand
    (``dataclass(slots=True)`` needs Python 3.10), and with it
    ``__init__`` and ``__reduce__``: pickle and copy would restore a
    slotted instance by ``setattr``, which a frozen class refuses.
    """

    __slots__ = ("op", "key", "value", "item")

    op: OpType
    key: bytes          # 16-byte keyhash, never all-zero
    value: Optional[bytes]  # None for GETs
    #: the item id behind the keyhash, when known (lets tests verify
    #: GET responses against the deterministic value function), else -1
    item: int

    def __init__(
        self, op: OpType, key: bytes, value: Optional[bytes], item: int = -1
    ) -> None:
        _set_op(self, op)
        _set_key(self, key)
        _set_value(self, value)
        _set_item(self, item)

    def __reduce__(self):
        return Operation, (self.op, self.key, self.value, self.item)

    @property
    def is_get(self) -> bool:
        return self.op is OpType.GET


# the slots' own setters: they bypass the frozen ``__setattr__``
_new_op = Operation.__new__
_set_op = Operation.op.__set__
_set_key = Operation.key.__set__
_set_value = Operation.value.__set__
_set_item = Operation.item.__set__


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


def _lane_keys(items: Sequence[int]) -> Tuple[Tuple[bytes, ...], Tuple[bytes, ...]]:
    """``keyhash(item)`` and the 8-byte ``value_for`` pattern of every
    item, synthesised in one pass: one 128-bit lane per item of a Python
    integer (:func:`repro.kv.hashing.mix64_lanes`), three splitmix64
    rounds per lane.  ``(pattern * reps)[:size]`` is ``value_for(item,
    size)`` with ``reps = ceil(size / 8)``."""
    count = len(items)
    x = to_lanes(items)
    # keyhash(): low = mix64(item), high = mix64(item ^ DEADBEEF)|1;
    # lane i of low | high << 64 is key i, little-endian.
    low = mix64_lanes(x, count)
    high = mix64_lanes(x ^ lanes(0xDEADBEEF, count), count) | lanes(1, count)
    keys = from_lanes(low | high << 64, count, "16s")
    # value_for(): pattern = mix64(item * 31), the low half of a lane
    return keys, from_lanes(mix64_lanes(x * 31, count), count, "8s8x")


def keyed_values(items: Sequence[int], value_size: int) -> Iterator[Tuple[bytes, bytes]]:
    """``(keyhash(item), value_for(item, value_size))`` for each item in
    order, :func:`_lane_keys` a stream batch at a time: a preload's
    synthesis."""
    reps = -(-value_size // 8)
    step = WorkloadStream.BATCH
    for start in range(0, len(items), step):
        keys, patterns = _lane_keys(items[start : start + step])
        for key, pattern in zip(keys, patterns):
            yield key, (pattern * reps)[:value_size]


@dataclass(frozen=True)
class Workload:
    """A workload configuration (one experiment cell)."""

    get_fraction: float = 0.95
    value_size: int = 32
    n_keys: int = 1 << 20
    #: "uniform", or "zipfian": Zipf(``ZIPF_THETA``) ranks, scrambled
    distribution: str = "uniform"

    READ_INTENSIVE = 0.95
    WRITE_INTENSIVE = 0.50

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ValueError("get_fraction must be within [0, 1]")
        if self.distribution not in ("uniform", "zipfian"):
            raise ValueError("unknown distribution %r" % self.distribution)
        if not (0 <= self.value_size <= 1024):  # also rejects NaN
            raise ValueError(
                "value_size must be within [0, 1024] (values above 1 KB "
                "exceed every evaluated system); got %r" % (self.value_size,)
            )
        if not (self.n_keys >= 1):
            raise ValueError("n_keys must be >= 1; got %r" % (self.n_keys,))

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


class WorkloadStream:
    """An endless, deterministic stream of operations for one client.

    Operations are produced in batches of :data:`BATCH`: the RNG draws
    happen in exactly the order the scalar path would make them (so a
    trace is bit-for-bit reproducible from the seed), but the keyhash
    and value synthesis run over the whole batch at once
    (:func:`_lane_keys`).
    """

    #: ops synthesised per refill; large enough to amortise the lane
    #: arithmetic, small enough that a short run wastes little work.
    #: Each stream lowers its own so that a batch of PUTs holds at most
    #: 32 KiB of values: 32 B values keep 256, 1 000 B values get 32
    #: (values are <= 1 KiB, so never fewer than 32).
    BATCH = 256

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self._rng = random.Random(mix64(seed ^ 0xC0FFEE))
        self._zipf: Optional[ZipfianGenerator] = None
        if workload.distribution == "zipfian":
            self._zipf = ZipfianGenerator(workload.n_keys, seed=seed)
        self.generated = 0
        self._ops: Deque[Operation] = deque()
        self.BATCH = min(self.BATCH, _BATCH_VALUE_BYTES // max(1, workload.value_size))

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
        keys, patterns = _lane_keys(items)
        reps = -(-value_size // 8)
        append = self._ops.append
        get, put = OpType.GET, OpType.PUT
        # the slots' setters, not the dataclass __init__: ~2x cheaper
        new, set_op, set_key, set_value, set_item = (
            _new_op, _set_op, _set_key, _set_value, _set_item
        )
        for item, coin, key, pattern in zip(items, coins, keys, patterns):
            op = new(Operation)
            if coin < get_fraction:
                set_op(op, get)
                set_value(op, None)
            else:
                set_op(op, put)
                set_value(op, (pattern * reps)[:value_size])
            set_key(op, key)
            set_item(op, item)
            append(op)

    def __iter__(self) -> Iterator[Operation]:
        while True:
            yield self.next_op()
