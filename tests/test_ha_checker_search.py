"""``check_key`` against the search it replaced.

``check_key`` used to run its own Wing–Gong search: a ``frozenset``-memo
search over one register, recursive until it moved onto an explicit
stack.  It is now a per-key adapter onto ``check_serializable`` — a
single-key history is a history of single-key transactions, and strict
serializability of those is linearizability.  The old search is kept
here, in its recursive form, as the differential reference: verdicts
and messages must agree on every history it can finish, pending, failed
and backwards writes, missed reads and coinciding timestamps included.
"""

import sys
from typing import Iterable, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ha import checker
from repro.ha.checker import HaOp, check_histories, check_key


def final_read(ops: Iterable[HaOp], value: Optional[bytes]) -> HaOp:
    """The synthetic read of the final state the old search was fed."""
    horizon = 0.0
    for op in ops:
        horizon = max(horizon, op.invoke, op.respond or 0.0)
    return HaOp(
        client=-1, kind="r", value=value, invoke=horizon + 1.0, respond=horizon + 2.0
    )


def recursive_check_key(
    ops: Iterable[HaOp], initial: Optional[bytes] = None
) -> Optional[str]:
    """The search ``check_key`` ran before (the oracle)."""
    ops = list(ops)
    completed: List[HaOp] = []
    pending_writes: List[HaOp] = []
    for op in ops:
        if op.respond is not None and op.respond < op.invoke:
            return "op responds before it is invoked (invoke=%r respond=%r)" % (
                op.invoke,
                op.respond,
            )
        if op.respond is not None and (op.kind == "r" or op.ok):
            completed.append(op)
        elif op.kind == "w":
            pending_writes.append(op)
    if not completed:
        return None
    memo: Set[Tuple[frozenset, frozenset, Optional[bytes]]] = set()

    def search(
        remaining: frozenset, pend: frozenset, state: Optional[bytes]
    ) -> bool:
        if not remaining:
            return True
        key = (remaining, pend, state)
        if key in memo:
            return False
        if len(memo) > checker._MEMO_LIMIT:
            raise RuntimeError("linearizability search exceeded the memo limit")
        memo.add(key)
        horizon = min(completed[i].respond for i in remaining)
        for i in sorted(remaining, key=lambda i: completed[i].respond):
            op = completed[i]
            if op.invoke > horizon:
                continue
            if op.kind == "r":
                if op.value == state:
                    if search(remaining - {i}, pend, state):
                        return True
            else:
                if search(remaining - {i}, pend, op.value):
                    return True
        for j in sorted(pend):
            op = pending_writes[j]
            if op.invoke > horizon:
                continue
            if search(remaining, pend - {j}, op.value):
                return True
        return False

    if search(
        frozenset(range(len(completed))),
        frozenset(range(len(pending_writes))),
        initial,
    ):
        return None
    reads = [o for o in completed if o.kind == "r"]
    return (
        "no linearization of %d completed ops (%d reads, %d pending writes) "
        "explains the observed values" % (len(completed), len(reads), len(pending_writes))
    )


VALUES = (b"va", b"vb", b"vc")


@st.composite
def per_key_ops(draw):
    """1–8 ops on one key by up to four clients: completed and pending
    writes, failed writes, reads that hit or miss, overlapping intervals,
    timestamps that coincide (integers from a small range) and (rarely)
    an op that responds before it is invoked."""
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from("rw"))
        invoke = float(draw(st.integers(0, 30)))
        fate = draw(st.sampled_from(
            ["done"] * 6 + ["pending", "failed", "backwards"]
        ))
        respond = None
        if fate != "pending":
            respond = invoke + draw(st.integers(0, 12))
        if fate == "backwards":
            respond = invoke - 1.0
        value = draw(st.sampled_from(VALUES + ((None,) if kind == "r" else ())))
        ops.append(HaOp(
            client=draw(st.integers(0, 3)), kind=kind, value=value,
            invoke=invoke, respond=respond, ok=fate != "failed",
        ))
    return ops


@st.composite
def per_key_history(draw):
    ops = draw(per_key_ops())
    if draw(st.booleans()):
        ops.append(final_read(ops, draw(st.sampled_from(VALUES + (None,)))))
    return ops, draw(st.sampled_from((None,) + VALUES))


@settings(max_examples=600, deadline=None)
@given(per_key_history())
def test_matches_the_recursive_search(case):
    ops, initial = case
    assert check_key(ops, initial) == recursive_check_key(ops, initial)


def reference_check_histories(histories, initial, final, max_violations=8):
    """``check_histories`` over the old search: the final read appended."""
    violations = []
    for keyhash in sorted(histories):
        ops = list(histories[keyhash])
        ops.append(final_read(ops, final.get(keyhash)))
        reason = recursive_check_key(ops, initial.get(keyhash))
        if reason is not None:
            violations.append(
                "key %s not linearizable: %s" % (keyhash.hex()[:16], reason)
            )
            if len(violations) >= max_violations:
                violations.append("... further keys not checked")
                break
    return violations


@st.composite
def keyed_histories(draw):
    """Up to four keys, each with a per-key history; a key's initial or
    final value may be absent (a miss)."""
    keys = [bytes([k]) * 16 for k in range(draw(st.integers(1, 4)))]
    histories = {k: draw(per_key_ops()) for k in keys}
    maybe = st.sampled_from((None,) + VALUES)
    initial = {k: draw(maybe) for k in keys if draw(st.booleans())}
    final = {k: draw(maybe) for k in keys if draw(st.booleans())}
    return histories, initial, final, draw(st.integers(1, 3))


@settings(max_examples=600, deadline=None)
@given(keyed_histories())
def test_check_histories_matches_the_old_search(case):
    histories, initial, final, cap = case
    assert check_histories(histories, initial, final, cap) == (
        reference_check_histories(histories, initial, final, cap)
    )


def test_touching_intervals_are_concurrent():
    # a pending write invoked at the very instant a read responds may
    # still linearize before it: intervals are closed at both ends
    ops = [
        HaOp(client=0, kind="r", value=b"vb", invoke=0.0, respond=5.0),
        HaOp(client=1, kind="w", value=b"vb", invoke=5.0),
        HaOp(client=2, kind="w", value=b"va", invoke=5.0, respond=6.0),
    ]
    assert check_key(ops) is None
    assert recursive_check_key(ops) is None


def blind_writes(n: int) -> List[HaOp]:
    """n concurrent writes of distinct values and a read that saw none:
    no linearization exists and the memo fills with subsets."""
    ops = [
        HaOp(client=i, kind="w", value=b"v%d" % i, invoke=0.0, respond=100.0)
        for i in range(n)
    ]
    return ops + [HaOp(client=n, kind="r", value=b"other", invoke=200.0, respond=201.0)]


def test_memo_limit_raises_like_the_oracle(monkeypatch):
    monkeypatch.setattr(checker, "_MEMO_LIMIT", 40)
    with pytest.raises(RuntimeError, match="memo limit"):
        recursive_check_key(blind_writes(6))
    with pytest.raises(RuntimeError, match="memo limit"):
        check_key(blind_writes(6))


def sequential_writes(n: int) -> List[HaOp]:
    ops = [
        HaOp(client=0, kind="w", value=b"v%d" % i, invoke=2.0 * i, respond=2.0 * i + 1)
        for i in range(n)
    ]
    return ops + [final_read(ops, b"v%d" % (n - 1))]


def test_two_thousand_ops_on_one_key_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() == 1_000
    with pytest.raises(RecursionError):
        recursive_check_key(sequential_writes(1_200))
    assert check_key(sequential_writes(2_000)) is None
    lost = sequential_writes(2_000)
    lost[-1].value = b"v0"  # the final read sees the first write
    assert check_key(lost) == (
        "no linearization of 2001 completed ops (1 reads, 0 pending writes) "
        "explains the observed values"
    )
