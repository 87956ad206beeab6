"""Per-key linearizability checking over chaos histories.

The chaos harness records, per key, every client invocation and
response (:class:`HaOp`).  Because HERD keys are independent (each PUT
replaces the whole value, there are no multi-key transactions), a
history is linearizable iff every *per-key* sub-history is — which
keeps the NP-hard general problem tractable: per-key histories under a
closed-loop window of a few clients stay small.

:func:`check_key` runs a Wing–Gong style search: repeatedly pick a
*minimal* operation (one that was invoked before every remaining
completed operation's response — any legal linearization must start
with one of these), apply it to the simulated register, and go one
level deeper (on an explicit stack, so history length is not bounded
by the recursion limit).  Memoisation on (remaining-set,
register-state) keeps the search polynomial in practice; each level
still sorts what remains, so even a history already in legal order
costs O(n² log n) in its n completed ops (docs/HA.md).

Operations that never got a response (client abandoned, primary died)
are *pending*: a pending write may be linearized at any point after
its invocation or omitted entirely (the update may or may not have
reached a surviving replica); a pending read constrains nothing and is
ignored.

On top of per-key linearizability the module checks the global HA
invariants the replication design promises:

* :func:`lost_acked_writes` — an acked write that provably ran last on
  its key must be the value a final read observes;
* :func:`split_brain` — at most one replica acks client operations in
  any (partition, epoch);
* monotonic backup high-water marks are counted at the source (see
  ``ReplicaRole.hwm_regressions``) and surfaced by the chaos report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: cap on the memo table per key — a pathological history degenerates
#: to an error rather than unbounded memory
_MEMO_LIMIT = 200_000


@dataclass
class HaOp:
    """One client operation against one key, with sim-time bounds."""

    client: int
    kind: str  # "r" | "w"
    #: for writes: the value written; for reads: the value returned
    #: (None = miss), filled in at response time
    value: Optional[bytes]
    invoke: float
    respond: Optional[float] = None
    #: False only for a failed completed write (treated like pending)
    ok: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("r", "w"):
            raise ValueError("HaOp.kind must be 'r' or 'w'; got %r" % (self.kind,))


def check_key(
    ops: Iterable[HaOp], initial: Optional[bytes] = None
) -> Optional[str]:
    """None if the per-key history is linearizable, else a reason."""
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
        # a pending read constrains nothing
    if not completed:
        return None

    # Most histories are already in a legal order: a greedy fast path
    # (linearize completed ops by response time, pending writes eagerly
    # whenever the next read needs their value) is attempted first by
    # the search's child ordering, so the exponential worst case is
    # only reached by genuinely contended interleavings.
    memo: Set[Tuple[frozenset, frozenset, Optional[bytes]]] = set()

    def children(
        remaining: frozenset, pend: frozenset, state: Optional[bytes]
    ) -> Iterator[Tuple[frozenset, frozenset, Optional[bytes]]]:
        horizon = min(completed[i].respond for i in remaining)
        for i in sorted(remaining, key=lambda i: completed[i].respond):
            op = completed[i]
            if op.invoke > horizon:
                continue
            if op.kind == "r":
                if op.value == state:
                    yield remaining - {i}, pend, state
            else:
                yield remaining - {i}, pend, op.value
        for j in sorted(pend):
            op = pending_writes[j]
            if op.invoke <= horizon:
                yield remaining, pend - {j}, op.value

    # Depth-first on an explicit stack of child iterators: the search
    # goes one level deeper per completed op, so recursion would die on
    # a key with ~1 000 of them.
    root = (
        frozenset(range(len(completed))),
        frozenset(range(len(pending_writes))),
        initial,
    )
    stack = [iter([root])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif not node[0]:
            return None
        elif node not in memo:
            if len(memo) > _MEMO_LIMIT:
                raise RuntimeError("linearizability search exceeded the memo limit")
            memo.add(node)
            stack.append(children(*node))
    reads = [o for o in completed if o.kind == "r"]
    return (
        "no linearization of %d completed ops (%d reads, %d pending writes) "
        "explains the observed values" % (len(completed), len(reads), len(pending_writes))
    )


def final_read(ops: Iterable[HaOp], value: Optional[bytes]) -> HaOp:
    """A synthetic read of the surviving primary's final state.

    Appending it to the history forces the checker to also prove the
    final store contents are explainable — this is what turns "an acked
    write vanished during failover" into a checker failure even when no
    real client happened to read the key again.
    """
    horizon = 0.0
    for op in ops:
        horizon = max(horizon, op.invoke, op.respond or 0.0)
    return HaOp(
        client=-1, kind="r", value=value, invoke=horizon + 1.0, respond=horizon + 2.0
    )


def check_histories(
    histories: Dict[bytes, List[HaOp]],
    initial: Dict[bytes, Optional[bytes]],
    final: Dict[bytes, Optional[bytes]],
    max_violations: int = 8,
) -> List[str]:
    """Check every per-key history; returns violation strings (empty = pass)."""
    violations: List[str] = []
    for keyhash in sorted(histories):
        ops = list(histories[keyhash])
        ops.append(final_read(ops, final.get(keyhash)))
        reason = check_key(ops, initial.get(keyhash))
        if reason is not None:
            violations.append(
                "key %s not linearizable: %s" % (keyhash.hex()[:16], reason)
            )
            if len(violations) >= max_violations:
                violations.append("... further keys not checked")
                break
    return violations


def lost_acked_writes(
    histories: Dict[bytes, List[HaOp]], final: Dict[bytes, Optional[bytes]]
) -> int:
    """Acked writes that provably ran last on their key yet are not the
    final value.

    This is a *sound witness* (never a false positive): a write counts
    only when every other write on the key completed strictly before it
    was invoked, so no interleaving could order another write after it.
    The full checker catches subtler losses; this counter exists so the
    chaos report can say "N acked writes lost" in plain numbers.
    """
    lost = 0
    for keyhash, ops in histories.items():
        writes = [o for o in ops if o.kind == "w"]
        acked = [o for o in writes if o.respond is not None and o.ok]
        for w in acked:
            others = [o for o in writes if o is not w]
            if all(o.respond is not None and o.respond <= w.invoke for o in others):
                if final.get(keyhash) != w.value:
                    lost += 1
                break  # at most one provably-last write per key
    return lost


# ---------------------------------------------------------------------------
# Multi-key transactions (repro.txn): strict serializability
# ---------------------------------------------------------------------------


@dataclass
class TxnRecord:
    """One client transaction over multiple keys, with sim-time bounds.

    ``reads`` are the (key, observed value) pairs the transaction saw
    *before* its own writes; ``writes`` are the (key, new value) pairs
    it installed.  ``status`` is ``"committed"`` (the client got a
    commit acknowledgement), ``"aborted"`` (the transaction provably
    installed nothing), or ``"pending"`` (the outcome is unknown — e.g.
    a commit whose acknowledgement was lost; it may or may not have
    applied).
    """

    txn_id: int
    client: int
    reads: Tuple[Tuple[int, bytes], ...]
    writes: Tuple[Tuple[int, bytes], ...]
    invoke: float
    respond: Optional[float] = None
    status: str = "committed"

    def __post_init__(self) -> None:
        if self.status not in ("committed", "aborted", "pending"):
            raise ValueError("TxnRecord.status must be committed/aborted/pending")


def final_read_txn(txns: Iterable[TxnRecord], final: Dict[int, bytes]) -> TxnRecord:
    """A synthetic read-only transaction observing the final store state.

    The multi-key analogue of :func:`final_read`: appending it forces
    the checker to prove the final store contents are explainable, so a
    torn commit (half a transaction's writes applied) fails the check
    even if no client read those keys again.
    """
    horizon = 0.0
    for txn in txns:
        horizon = max(horizon, txn.invoke, txn.respond or 0.0)
    return TxnRecord(
        txn_id=-1,
        client=-1,
        reads=tuple(sorted(final.items())),
        writes=(),
        invoke=horizon + 1.0,
        respond=horizon + 2.0,
    )


def check_serializable(
    txns: Iterable[TxnRecord],
    initial: Optional[Dict[int, bytes]] = None,
    final: Optional[Dict[int, bytes]] = None,
) -> Optional[str]:
    """None if the history is strictly serializable, else a reason.

    The Wing–Gong search generalised from a single register to a keyed
    store: repeatedly pick a *minimal* committed transaction (invoked
    before every remaining committed transaction's response — real-time
    order is respected, so this checks strict serializability), require
    its reads to match the simulated store, apply its writes, go on.
    Pending transactions may serialise at any point after their
    invocation (their reads must still have been valid — both commit
    dataplanes validate before installing) or never.  Aborted
    transactions are excluded; that their writes leaked is caught by
    the ``final`` read (pass the post-run store scan).

    One serialization step costs what is concurrent with it, not what
    the history holds: the search keeps one store, one active flag per
    transaction and cursors into three sorted orders, restores all of
    them from one undo trail when it backtracks, and iterates over an
    explicit stack of choice points (docs/TXN.md has the bounds).
    """
    completed: List[TxnRecord] = []
    pending: List[TxnRecord] = []
    for txn in txns:
        if txn.respond is not None and txn.respond < txn.invoke:
            return "txn %d responds before it is invoked" % txn.txn_id
        if txn.status == "committed" and txn.respond is not None:
            completed.append(txn)
        elif txn.status == "pending":
            pending.append(txn)
        elif txn.status == "committed":
            # committed but no response time recorded: treat as pending
            pending.append(txn)
    if final is not None:
        completed.append(final_read_txn(completed + pending, final))
    if not completed:
        return None

    # Transactions are numbered completed first (the synthetic final
    # read, if any, last of them), pending after.
    records = completed + pending
    n_completed = len(completed)
    final_id = n_completed - 1 if final is not None else None
    invoke_of = [txn.invoke for txn in records]
    respond_of = [txn.respond for txn in completed]
    reads_of = [txn.reads for txn in records]
    writes_of = [txn.writes for txn in records]
    by_respond = sorted(range(n_completed), key=respond_of.__getitem__)
    by_invoke = sorted(range(n_completed), key=invoke_of.__getitem__)
    # Who touches each key, earliest invoked first.  The final read
    # touches every key but starts after every response: it can never
    # precede anything, so it is left out and never blocks a forced step.
    keys_of: List[Iterable[int]] = [()] * len(records)
    by_key: Dict[int, List[int]] = {}
    for i in sorted(range(len(records)), key=invoke_of.__getitem__):
        if i != final_id:
            keys_of[i] = dict(reads_of[i]).keys() | dict(writes_of[i]).keys()
            for k in keys_of[i]:
                by_key.setdefault(k, []).append(i)

    # The search state.  Every change to it is logged on ``trail`` as
    # (container, index, previous value); backtracking pops the log.
    store: Dict[int, Optional[bytes]] = dict(initial or {})
    active = bytearray(b"\x01") * len(records)
    key_cursor = dict.fromkeys(by_key, 0)  # first active toucher per key
    cursor = [0, 0]  # first active entry of by_respond, of by_invoke
    trail: List[tuple] = []
    #: choice points: [candidates, next one to try, trail length on arrival]
    stack: List[list] = []
    #: states from which the search has failed
    memo: Set[tuple] = set()
    #: keys whose earliest active toucher has not been examined yet
    dirty = list(by_key)

    def reads_match(i: int) -> bool:
        for k, v in reads_of[i]:
            if store.get(k) != v:
                return False
        return True

    def take(i: int) -> None:
        trail.append((active, i, 1))
        active[i] = 0
        for k, v in writes_of[i]:
            trail.append((store, k, store.get(k)))
            store[k] = v
        dirty.extend(keys_of[i])

    def state_key() -> tuple:
        return bytes(active), tuple(map(store.get, by_key))

    def choice_point() -> Optional[List[int]]:
        """Serialize up to the next choice: its candidates, ``[]`` at a
        dead end, None once every completed transaction is serialized."""
        while True:
            # Rule 1, forced steps.  A committed transaction is committed
            # greedily, no choice point, when every other active
            # transaction touching one of its keys was invoked after its
            # response: real-time order already pins those behind it and
            # key-disjoint transactions commute with it, so in any valid
            # serialization it can be moved to the front — if its reads
            # match the store it is safe to commit now, and if they do
            # not no other order can fix it.  Only the earliest-invoked
            # active toucher of a key can be in that position, and
            # taking a transaction changes who that is for its own keys
            # only, so those are all that is looked at again.
            while dirty:
                k = dirty.pop()
                touchers = by_key[k]
                at = key_cursor[k]
                while at < len(touchers) and not active[touchers[at]]:
                    at += 1
                if at != key_cursor[k]:
                    trail.append((key_cursor, k, key_cursor[k]))
                    key_cursor[k] = at
                if at == len(touchers) or touchers[at] >= n_completed:
                    continue
                i = touchers[at]
                forced = True
                for shared in keys_of[i]:
                    others = by_key[shared]
                    for at in range(key_cursor[shared], len(others)):
                        t = others[at]
                        if t != i and active[t]:
                            forced = invoke_of[t] >= respond_of[i]
                            break
                    if not forced:
                        break
                if forced:
                    if not reads_match(i):
                        dirty.clear()
                        return []  # no order puts a concurrent toucher first
                    take(i)

            # The horizon is the earliest response still outstanding;
            # the transactions invoked by then are the minimal ones.
            at = cursor[0]
            while at < n_completed and not active[by_respond[at]]:
                at += 1
            if at == n_completed:
                return None
            if at != cursor[0]:
                trail.append((cursor, 0, cursor[0]))
                cursor[0] = at
            horizon = respond_of[by_respond[at]]
            # Rule 3: a state the search failed from fails however it is
            # reached.  Keys are built once there is one to compare with:
            # a search that never fails never pays for the memo.
            if memo and state_key() in memo:
                return []
            at = cursor[1]
            while not active[by_invoke[at]]:
                at += 1
            if at != cursor[1]:
                trail.append((cursor, 1, cursor[1]))
                cursor[1] = at
            minimal = []
            while at < n_completed and invoke_of[by_invoke[at]] <= horizon:
                if active[by_invoke[at]]:
                    minimal.append(by_invoke[at])
                at += 1
            minimal.sort(key=respond_of.__getitem__)
            for j in range(n_completed, len(records)):
                if active[j] and invoke_of[j] <= horizon:
                    minimal.append(j)
            candidates = []
            for i in minimal:
                if reads_match(i):
                    if not writes_of[i]:
                        # Rule 2: a minimal read-only transaction whose
                        # reads match is taken with no sibling branch —
                        # it writes nothing and nothing must precede it,
                        # so a serialization that exists without it
                        # first exists with it first.
                        take(i)
                        break
                    candidates.append(i)
            else:
                return candidates

    while True:
        candidates = choice_point()
        if candidates is None:
            return None
        if candidates:
            stack.append([candidates, 0, len(trail)])
        # Undo to the newest choice point with a candidate left (the one
        # just pushed, if any) and take it.
        while stack:
            candidates, at, mark = frame = stack[-1]
            while len(trail) > mark:
                box, index, before = trail.pop()
                box[index] = before
            if at < len(candidates):
                frame[1] = at + 1
                take(candidates[at])
                break
            stack.pop()
            if len(memo) > _MEMO_LIMIT:
                raise RuntimeError("serializability search exceeded the memo limit")
            memo.add(state_key())
        else:
            return (
                "no serial order of %d committed txns (%d pending) respects the "
                "real-time order and explains the observed reads"
                % (len(completed), len(pending))
            )


def split_brain(ack_witness: Dict[Tuple[int, int], Set[int]]) -> List[str]:
    """Violations for ``{(partition, epoch): {replicas that acked}}``.

    The fencing design guarantees at most one replica acks client
    operations within a (partition, epoch); two ackers means a stale
    primary slipped an acknowledgement past its demotion.
    """
    out = []
    for (partition, epoch), replicas in sorted(ack_witness.items()):
        if len(replicas) > 1:
            out.append(
                "split brain: replicas %s all acked ops for partition %d "
                "in epoch %d" % (sorted(replicas), partition, epoch)
            )
    return out
