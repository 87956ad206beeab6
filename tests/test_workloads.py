"""Tests for workload generation: mixes, key hashing, Zipfian skew."""

import collections

import pytest

from repro.kv.hashing import hash_key, mix64
from repro.workloads import OpType, Workload, ZipfianGenerator
from repro.workloads.ycsb import Operation, keyhash, value_for
from repro.workloads.zipf import zeta


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


def test_mix64_deterministic_and_avalanching():
    assert mix64(42) == mix64(42)
    # Flipping one input bit flips many output bits.
    diff = mix64(42) ^ mix64(43)
    assert bin(diff).count("1") > 16


def test_hash_key_salts_are_independent():
    key = b"k" * 16
    values = {hash_key(key, salt) for salt in range(8)}
    assert len(values) == 8


def test_hash_key_handles_wide_keys():
    assert hash_key(b"x" * 64) != hash_key(b"y" * 64)


# ---------------------------------------------------------------------------
# keyhash / values
# ---------------------------------------------------------------------------


def test_keyhash_is_16_bytes_and_nonzero():
    """HERD forbids the all-zero keyhash (Section 4.2: zero means
    'empty slot')."""
    for item in range(1000):
        kh = keyhash(item)
        assert len(kh) == 16
        assert kh != b"\x00" * 16


def test_keyhash_distinct():
    hashes = {keyhash(i) for i in range(10_000)}
    assert len(hashes) == 10_000


def test_value_for_deterministic_and_sized():
    assert value_for(7, 32) == value_for(7, 32)
    assert len(value_for(7, 32)) == 32
    assert len(value_for(7, 5)) == 5
    assert value_for(7, 32) != value_for(8, 32)
    assert value_for(7, 32, version=1) != value_for(7, 32, version=0)


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def test_workload_validation():
    with pytest.raises(ValueError):
        Workload(get_fraction=1.5)
    with pytest.raises(ValueError):
        Workload(distribution="pareto")
    with pytest.raises(ValueError):
        Workload(value_size=1025)  # 1 KB is every system's max item


def test_ycsb_presets():
    a = Workload.ycsb("A")
    b = Workload.ycsb("b")
    c = Workload.ycsb("C", value_size=100)
    assert a.get_fraction == 0.50 and a.distribution == "zipfian"
    assert b.get_fraction == 0.95
    assert c.get_fraction == 1.00 and c.value_size == 100
    with pytest.raises(ValueError):
        Workload.ycsb("F")


def test_read_intensive_mix():
    """95% GET / 5% PUT within statistical tolerance."""
    stream = Workload(get_fraction=0.95).stream(seed=1)
    ops = [stream.next_op() for _ in range(20_000)]
    gets = sum(1 for o in ops if o.op is OpType.GET)
    assert 0.94 <= gets / len(ops) <= 0.96


def test_write_intensive_mix():
    stream = Workload(get_fraction=0.50).stream(seed=1)
    ops = [stream.next_op() for _ in range(20_000)]
    gets = sum(1 for o in ops if o.op is OpType.GET)
    assert 0.48 <= gets / len(ops) <= 0.52


def test_puts_carry_values_gets_do_not():
    stream = Workload(get_fraction=0.5, value_size=48).stream(seed=2)
    for _ in range(100):
        op = stream.next_op()
        if op.op is OpType.PUT:
            assert op.value is not None and len(op.value) == 48
        else:
            assert op.value is None


def test_streams_are_deterministic_per_seed():
    w = Workload()
    a = [w.stream(seed=5).next_op() for _ in range(1)]
    b = [w.stream(seed=5).next_op() for _ in range(1)]
    assert a == b
    ops_a = list(zip(range(50), w.stream(seed=5)))
    ops_b = list(zip(range(50), w.stream(seed=5)))
    assert ops_a == ops_b


def test_streams_differ_across_seeds():
    w = Workload()
    a = [w.stream(seed=1).next_op() for _ in range(10)]
    b = [w.stream(seed=2).next_op() for _ in range(10)]
    assert a != b


# ---------------------------------------------------------------------------
# Zipf
# ---------------------------------------------------------------------------


def test_zeta_small_values():
    assert zeta(1, 0.99) == pytest.approx(1.0)
    assert zeta(2, 0.99) == pytest.approx(1.0 + 0.5 ** 0.99)


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfianGenerator(1)
    with pytest.raises(ValueError):
        ZipfianGenerator(100, theta=1.5)


def test_zipf_rank_zero_is_most_popular():
    gen = ZipfianGenerator(100_000, theta=0.99, seed=3)
    counts = collections.Counter(gen.next_rank() for _ in range(50_000))
    assert counts[0] > counts.get(10, 0) > counts.get(1000, 0)


def test_zipf_matches_analytic_head_probabilities():
    gen = ZipfianGenerator(10_000, theta=0.99, seed=4)
    n = 200_000
    counts = collections.Counter(gen.next_rank() for _ in range(n))
    # Gray's sampler is exact for ranks 0 and 1 and approximates the
    # continuous tail elsewhere (rank 2-4 carry a known ~15-25% bias;
    # YCSB inherits the same behaviour).
    for rank in (0, 1, 10):
        expect = gen.probability_of_rank(rank)
        got = counts[rank] / n
        assert abs(got - expect) / expect < 0.15


def test_zipf_hot_key_dominates_average_as_in_section_5_7():
    """Section 5.7: the most popular key is over 1e5 times more popular
    than the average key (with an 8M-key universe)."""
    n = 8_000_000
    gen = ZipfianGenerator(n, theta=0.99, seed=0)
    top = gen.probability_of_rank(0)
    average = 1.0 / n
    assert top / average > 1e5


def test_scrambling_spreads_hot_ranks_across_partitions():
    """Section 5.7: with 6 partitions, skewed load spreads well —
    the most loaded partition stays within ~1.5x of the least."""
    gen = ZipfianGenerator(1 << 20, theta=0.99, seed=5)
    loads = collections.Counter(gen.next_item() % 6 for _ in range(60_000))
    most, least = max(loads.values()), min(loads.values())
    assert most / least < 1.6


def test_unscrambled_ranks_stay_in_range():
    gen = ZipfianGenerator(1000, seed=6)
    assert all(0 <= gen.next_rank() < 1000 for _ in range(10_000))


def test_scrambled_items_stay_in_range():
    gen = ZipfianGenerator(1000, seed=7)
    assert all(0 <= gen.next_item() < 1000 for _ in range(10_000))


# ---------------------------------------------------------------------------
# batched generation: bit-for-bit the scalar trace
# ---------------------------------------------------------------------------
#
# WorkloadStream synthesises operations in numpy batches.  The oracle
# below replays the *scalar* semantics — one RNG draw at a time through
# the public scalar helpers — so these tests fail if batching ever
# reorders a draw or the vectorised mix64 drifts by a bit.


def _scalar_ops(workload, seed, count):
    import random as _random

    rng = _random.Random(mix64(seed ^ 0xC0FFEE))
    zipf = None
    if workload.distribution == "zipfian":
        zipf = ZipfianGenerator(workload.n_keys, seed=seed)
    ops = []
    for _ in range(count):
        item = zipf.next_item() if zipf is not None else rng.randrange(workload.n_keys)
        if rng.random() < workload.get_fraction:
            ops.append(Operation(OpType.GET, keyhash(item), None, item=item))
        else:
            ops.append(
                Operation(
                    OpType.PUT,
                    keyhash(item),
                    value_for(item, workload.value_size),
                    item=item,
                )
            )
    return ops


def test_batched_stream_matches_scalar_oracle_uniform():
    workload = Workload(get_fraction=0.7, value_size=24, n_keys=5000)
    stream = workload.stream(seed=42)
    expected = _scalar_ops(workload, 42, 1000)
    assert [stream.next_op() for _ in range(1000)] == expected


def test_batched_stream_matches_scalar_oracle_zipfian():
    workload = Workload(
        get_fraction=0.5, value_size=32, n_keys=10_000, distribution="zipfian"
    )
    stream = workload.stream(seed=9)
    expected = _scalar_ops(workload, 9, 1000)
    assert [stream.next_op() for _ in range(1000)] == expected


def test_batch_size_does_not_change_the_trace():
    workload = Workload(get_fraction=0.5, value_size=16, n_keys=512)
    reference_stream = workload.stream(seed=3)
    reference = [reference_stream.next_op() for _ in range(50)]
    for batch in (1, 2, 7, 50, 64):
        stream = workload.stream(seed=3)
        stream.BATCH = batch  # instance override, exercises refills
        assert [stream.next_op() for _ in range(50)] == reference


def test_zipf_next_items_matches_scalar_draws():
    a = ZipfianGenerator(4096, theta=0.99, seed=13)
    b = ZipfianGenerator(4096, theta=0.99, seed=13)
    assert a.next_items(500) == [b.next_item() for _ in range(500)]
    # and the RNG streams stay aligned afterwards
    assert a.next_item() == b.next_item()


def test_batched_operations_support_dataclass_replace():
    import dataclasses

    stream = Workload(get_fraction=0.0, value_size=8).stream(seed=1)
    op = stream.next_op()
    clone = dataclasses.replace(op, item=123)
    assert clone.item == 123
    assert clone.key == op.key and clone.value == op.value


# ---------------------------------------------------------------------------
# pure-Python arithmetic: lanes, zeta
# ---------------------------------------------------------------------------


def test_mix64_lanes_is_mix64_in_every_lane():
    import random as _random

    from repro.kv.hashing import from_lanes, mix64_lanes, to_lanes

    rng = _random.Random(5)
    for count in (0, 1, 2, 7, 256):
        words = [rng.getrandbits(64) for _ in range(count)]
        words[:2] = [0, (1 << 64) - 1][:count]
        x = to_lanes(words)
        assert from_lanes(x, count) == tuple(words)
        mixed = mix64_lanes(x, count)
        assert from_lanes(mixed, count) == tuple(mix64(w) for w in words)
        assert from_lanes(mixed, count, "8s8x") == tuple(
            mix64(w).to_bytes(8, "little") for w in words
        )
        # wider than 64 bits in a lane: masked first, as mix64 does
        assert from_lanes(mix64_lanes(x * 31, count), count) == tuple(
            mix64(w * 31) for w in words
        )


def _pairwise_oracle(terms):
    """NumPy's own pairwise order: ``np.sum`` of the very same terms."""
    np = pytest.importorskip("numpy")
    return float(np.sum(np.array(terms, dtype=np.float64)))


@pytest.mark.parametrize("theta", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 127, 128, 129, 1000, 4096, 10_000])
def test_zeta_is_the_pairwise_sum_of_correctly_rounded_terms(n, theta):
    terms = [float(i) ** -theta for i in range(1, n + 1)]
    assert zeta(n, theta) == _pairwise_oracle(terms)


def test_zeta_pinned_values():
    # (3, .99): numpy's vectorised power reads 3**-.99 one ulp low on
    # some CPUs (AVX-512), which made this sum 1.840493339007644 there
    assert zeta(3, 0.99) == 1.8404933390076441
    assert zeta(4096, 0.99) == 9.250105927598003
    assert zeta(1 << 16, 0.99) == 12.305209353696728
    assert zeta(1 << 20, 0.99) == 15.446323069717286


def test_zeta_is_computed_once_per_n_and_theta(monkeypatch):
    """Every client stream builds its own ZipfianGenerator; a HERD
    cluster's 51 streams over one (n, theta) sum the series once."""
    import repro.workloads.zipf as zipf

    summed = collections.Counter()
    pairwise_sum = zipf._pairwise_sum

    def counting(block, lo, n):
        summed[n] += 1
        return pairwise_sum(block, lo, n)

    monkeypatch.setattr(zipf, "_pairwise_sum", counting)
    zipf.zeta.cache_clear()
    workload = Workload(n_keys=5003, distribution="zipfian")
    streams = [workload.stream(seed) for seed in range(51)]
    assert summed == {5003: 1, 2: 1}
    assert len({s._zipf._zetan for s in streams}) == 1
