"""History checkers: per-key linearizability and strict serializability.

There is one Wing–Gong search, :func:`check_serializable`: strict
serializability of multi-key transactions (:class:`TxnRecord`, recorded
by :mod:`repro.txn`) over a keyed store.  The chaos harness records, per
HERD key, every client invocation and response (:class:`HaOp`); HERD
keys are independent, so a history is linearizable iff every per-key
sub-history is, and strict serializability of single-key operations
*is* linearizability.  :func:`check_key` therefore runs the same search
on one key's ops as single-key transactions: a completed read is
read-only, an acked write a committed blind write, a failed or
unanswered write pending (it may take effect at any point after its
invocation, or never), and an unanswered read constrains nothing.
Intervals are closed: an operation invoked at the very instant another
responds is concurrent with it.

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
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: cap on the memo table per key — a pathological history degenerates
#: to an error rather than unbounded memory
_MEMO_LIMIT = 200_000
#: ``check_key``'s default ``final``: no synthetic final read
_NO_FINAL = object()


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
    ops: Iterable[HaOp], initial: Optional[bytes] = None, final: object = _NO_FINAL
) -> Optional[str]:
    """None if the per-key history is linearizable, else a reason.

    ``final`` is what a read after every op observes (None: the key is
    absent; left out: no such read), so an acked write lost in a
    failover fails the check even if no client read the key again.
    """
    records: List[TxnRecord] = []
    for op in ops:
        if op.respond is not None and op.respond < op.invoke:
            return "op responds before it is invoked (invoke=%r respond=%r)" % (
                op.invoke,
                op.respond,
            )
        if op.kind == "r" and op.respond is None:
            continue  # a pending read constrains nothing
        cell = ((0, op.value),)
        reads, writes = (cell, ()) if op.kind == "r" else ((), cell)
        done = op.respond is not None and (op.kind == "r" or op.ok)
        status = "committed" if done else "pending"
        records.append(TxnRecord(
            len(records), op.client, reads, writes, op.invoke, op.respond, status
        ))
    read_last = final is not _NO_FINAL
    finals = {0: final} if read_last else None
    if check_serializable(records, {0: initial}, finals) is None:
        return None
    reads = sum(1 for r in records if r.reads) + read_last
    pending = sum(1 for r in records if r.status == "pending")
    return (
        "no linearization of %d completed ops (%d reads, %d pending writes) "
        "explains the observed values"
        % (len(records) - pending + read_last, reads, pending)
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
        reason = check_key(histories[keyhash], initial.get(keyhash), final.get(keyhash))
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

    Appending it forces the checker to prove the final store contents
    are explainable, so a torn commit (half a transaction's writes
    applied) fails the check even if no client read those keys again.
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
        elif txn.status != "aborted":
            # pending, or committed with no response time recorded
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
            # transaction touching one of its keys was invoked strictly
            # after its response (intervals are closed: one invoked at
            # that very instant is concurrent, as at the choice point):
            # real-time order already pins those behind it and
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
                            forced = invoke_of[t] > respond_of[i]
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
