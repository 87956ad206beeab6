"""The linearizability checker against hand-built histories.

Each test constructs a tiny per-key history by hand — invocation and
response times chosen so exactly one verdict is defensible — and
asserts the checker reaches it.  These are the checker's ground truth:
if it cannot tell a lost update from a legal interleaving on five ops,
its verdict on a 10k-op chaos run means nothing.
"""

import pytest

from repro.ha import (
    HaOp,
    ReplicaMap,
    check_histories,
    check_key,
    lost_acked_writes,
    split_brain,
)

K = b"k" * 16
A, B, C = b"va", b"vb", b"vc"


def w(client, value, invoke, respond, ok=True):
    return HaOp(client=client, kind="w", value=value, invoke=invoke, respond=respond, ok=ok)


def r(client, value, invoke, respond):
    return HaOp(client=client, kind="r", value=value, invoke=invoke, respond=respond)


# -- check_key ---------------------------------------------------------


def test_sequential_history_linearizable():
    ops = [w(0, A, 0, 1), r(1, A, 2, 3), w(0, B, 4, 5), r(1, B, 6, 7)]
    assert check_key(ops, initial=None) is None


def test_read_of_initial_value():
    assert check_key([r(0, A, 0, 1)], initial=A) is None
    assert check_key([r(0, A, 0, 1)], initial=B) is not None


def test_overlapping_writes_either_order():
    # w(A) and w(B) overlap: both final values are explainable
    for last in (A, B):
        ops = [w(0, A, 0, 10), w(1, B, 5, 8), r(2, last, 20, 21)]
        assert check_key(ops, initial=None) is None


def test_lost_update_detected():
    # w(B) is invoked after w(A)'s value was already visible (the read
    # at 5..6 saw A), so B must linearize after A — yet later reads see
    # A again: B's acked update was lost
    ops = [
        w(0, A, 0, 10),
        r(2, A, 5, 6),
        w(1, B, 7, 9),
        r(2, A, 20, 21),
    ]
    assert check_key(ops, initial=None) is not None


def test_stale_read_detected():
    # a read strictly after w(B) completed must not return the older A
    ops = [w(0, A, 0, 1), w(1, B, 2, 3), r(2, A, 10, 11)]
    assert check_key(ops, initial=None) is not None


def test_stale_read_allowed_while_write_in_flight():
    # the same read is fine if it overlaps the write (linearizes first)
    ops = [w(0, A, 0, 1), w(1, B, 2, 30), r(2, A, 10, 11)]
    assert check_key(ops, initial=None) is None


def test_pending_write_may_or_may_not_take_effect():
    # w(B) never responded (primary died): both outcomes are legal
    assert check_key([w(0, A, 0, 1), w(1, B, 2, None), r(2, B, 10, 11)]) is None
    assert check_key([w(0, A, 0, 1), w(1, B, 2, None), r(2, A, 10, 11)]) is None
    # ...but it cannot take effect *before* its invocation
    assert check_key([r(2, B, 0, 1), w(1, B, 2, None)]) is not None


def test_failed_write_treated_as_pending():
    ops = [w(0, A, 0, 1), w(1, B, 2, 3, ok=False), r(2, A, 10, 11)]
    assert check_key(ops, initial=None) is None


def test_respond_before_invoke_rejected():
    assert "before it is invoked" in check_key([w(0, A, 5, 1)])


# -- check_histories and the synthetic final read ----------------------


def test_final_read_exposes_silently_lost_write():
    # no client ever reads after w(B), but the final store says A:
    # the synthetic final read turns that into a violation
    histories = {K: [w(0, A, 0, 1), w(1, B, 2, 3)]}
    assert check_histories(histories, {K: None}, {K: B}) == []
    bad = check_histories(histories, {K: None}, {K: A})
    assert len(bad) == 1 and "not linearizable" in bad[0]


def test_final_read_is_after_every_op():
    # the synthetic final read starts after the last response: a write
    # still in flight until t=100 has taken effect by then
    ops = [w(0, A, 0, 1), w(1, B, 50, 100)]
    assert check_key(ops, final=B) is None
    assert check_key(ops, final=A) is not None
    # ... and a final miss must be explained too
    assert check_key([w(0, A, 0, 1)], final=None) is not None
    assert check_key([r(0, None, 0, 1)], final=None) is None


def test_check_histories_caps_violations():
    histories = {
        bytes([i]) * 16: [w(0, A, 0, 1), r(1, B, 2, 3)] for i in range(12)
    }
    out = check_histories(histories, {}, {k: A for k in histories}, max_violations=3)
    assert len(out) == 4 and out[-1].startswith("...")


# -- lost_acked_writes (the sound witness) -----------------------------


def test_lost_acked_writes_counts_provable_loss():
    histories = {K: [w(0, A, 0, 1), w(1, B, 5, 6)]}
    assert lost_acked_writes(histories, {K: B}) == 0
    assert lost_acked_writes(histories, {K: A}) == 1


def test_lost_acked_writes_is_conservative_about_overlap():
    # w(B) overlaps w(A): either could be last, so no provable loss
    histories = {K: [w(0, A, 0, 10), w(1, B, 5, 8)]}
    assert lost_acked_writes(histories, {K: A}) == 0
    assert lost_acked_writes(histories, {K: B}) == 0


# -- split_brain -------------------------------------------------------


def test_split_brain_flags_two_ackers_in_one_epoch():
    witness = {(0, 0): {0}, (0, 1): {1, 0}, (1, 0): {0}}
    out = split_brain(witness)
    assert len(out) == 1
    assert "partition 0" in out[0] and "epoch 1" in out[0]
    assert split_brain({(0, 0): {0}, (0, 1): {1}}) == []


# -- ReplicaMap --------------------------------------------------------


def test_replica_map_update_is_epoch_gated():
    m = ReplicaMap(n_partitions=2, replication_factor=3)
    assert m.primary == [0, 0] and m.epoch == [0, 0]
    assert m.update(0, primary=1, epoch=1) is True
    assert m.primary[0] == 1 and m.primary[1] == 0
    # stale config (epoch 0 again) must be ignored
    assert m.update(0, primary=2, epoch=1) is False
    assert m.primary[0] == 1
    # same primary, newer epoch: adopted but reports no routing change
    assert m.update(0, primary=1, epoch=2) is False
    assert m.epoch[0] == 2


def test_replica_map_lane_addressing():
    m = ReplicaMap(n_partitions=4, replication_factor=2)
    assert m.lane(2, 4) == 2  # replica 0: lane == partition
    m.update(2, primary=1, epoch=1)
    assert m.lane(2, 4) == 4 + 2  # replica r serves lanes r*n_partitions+p
    with pytest.raises(ValueError):
        m.update(0, primary=5, epoch=9)


def test_haop_rejects_unknown_kind():
    with pytest.raises(ValueError):
        HaOp(client=0, kind="x", value=None, invoke=0.0)
