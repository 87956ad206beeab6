"""The search inside ``check_serializable`` against its predecessor.

``check_serializable`` decides strict serializability with a search that
keeps one store, one active flag per transaction and cursors into three
sorted orders, undoes them from one trail and iterates over an explicit
stack.  Its predecessor — recursive, a store copy, a ``remaining - {i}``
set and a rescan of every remaining transaction per frame — is kept here
verbatim as the oracle (the way ``test_datapath_fusion.py`` and
``test_kv_hot_path.py`` keep theirs).  Four things are pinned:

* verdict *and* message equal the oracle's on small concurrent
  histories that draw every record kind and every way a run goes wrong;
* depth: a history that needs one choice point per record does not
  touch the interpreter stack (the oracle dies on it);
* ``sys.setprofile`` budgets of Python-level calls, absolute for three
  benchmark cells and per record across window sizes (wall clock cannot
  gate on a shared VM; counts repeat to the unit — ROADMAP 7(b)), so a
  rescan or a copy per choice point fails here;
* every frame of the search is booked to the benchmark's ``txn`` layer.

Timestamps.  Intervals are closed: a transaction invoked at the very
instant another responds is concurrent with it, at a forced step as at
a choice point.  The oracle's forced-step rule still counts such a pair
as ordered, so with a tie its verdict depends on the order it explores;
the histories drawn here give every invocation and response its own
instant, and ``tests/test_ha_checker_search.py`` draws coinciding ones
against ``check_key``'s old search, which has always used closed
intervals.
"""

import cProfile
import functools
import importlib.util
import os
import pstats
import sys
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.txn.cluster
from repro.bench.figures import run_txn
from repro.faults.rng import derive_seed
from repro.ha import checker
from repro.ha.checker import _MEMO_LIMIT, TxnRecord, check_serializable, final_read_txn

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# the oracle: the search as it was before it ran on cursors and a trail
# ---------------------------------------------------------------------------


def recursive_check_serializable(
    txns: Iterable[TxnRecord],
    initial: Optional[Dict[int, bytes]] = None,
    final: Optional[Dict[int, bytes]] = None,
) -> Optional[str]:
    """None if the history is strictly serializable, else a reason.

    The Wing–Gong search generalised from a single register to a keyed
    store: repeatedly pick a *minimal* committed transaction (invoked
    before every remaining committed transaction's response — real-time
    order is respected, so this checks strict serializability), require
    its reads to match the simulated store, apply its writes, recurse.
    Pending transactions may serialise at any point after their
    invocation (their reads must still have been valid — both commit
    dataplanes validate before installing) or never.  Aborted
    transactions are excluded; that their writes leaked is caught by
    the ``final`` read (pass the post-run store scan).
    """
    base: Dict[int, bytes] = dict(initial or {})
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
    final_idx: Optional[int] = None
    if final is not None:
        final_idx = len(completed)
        completed.append(final_read_txn(completed + pending, final))
    if not completed:
        return None

    # Partial-order reduction: a committed transaction is a *forced*
    # step — committed greedily, no choice point — when every other
    # still-active transaction touching one of its keys was invoked
    # after its response.  Real-time order already pins all those
    # touchers after it, and key-disjoint transactions commute with it,
    # so in any valid serialization it can be moved to the front: if
    # its reads match the current store it is safe to commit now, and
    # if they mismatch no other order can fix it.  A key contended
    # *concurrently* still branches, but a key merely reused later in
    # the run no longer blocks the reduction — low-contention histories
    # verify in near-linear time and the exponential search only runs
    # over genuinely overlapping conflict clusters.  The synthetic
    # final read (which touches every key but starts after every
    # response) is excluded from the toucher index: it can never
    # precede anything, so it never blocks a forced step.
    keyset = [
        frozenset(k for k, _ in txn.reads) | frozenset(k for k, _ in txn.writes)
        for txn in completed
    ]
    pend_keyset = [
        frozenset(k for k, _ in txn.reads) | frozenset(k for k, _ in txn.writes)
        for txn in pending
    ]
    n_completed = len(completed)
    invoke_of = [txn.invoke for txn in completed] + [txn.invoke for txn in pending]
    touchers: Dict[int, Set[int]] = {}
    for i, ks in enumerate(keyset):
        if i == final_idx:
            continue
        for k in ks:
            touchers.setdefault(k, set()).add(i)
    for j, ks in enumerate(pend_keyset):
        for k in ks:
            touchers.setdefault(k, set()).add(n_completed + j)

    def forced_eligible(i: int) -> bool:
        bound = completed[i].respond
        for k in keyset[i]:
            for t in touchers.get(k, ()):
                if t != i and invoke_of[t] < bound:
                    return False
        return True

    memo: Set[Tuple[frozenset, frozenset, frozenset]] = set()

    def lookup(state: Dict[int, bytes], key: int) -> Optional[bytes]:
        if key in state:
            return state[key]
        return base.get(key)

    def reads_match(txn: TxnRecord, state: Dict[int, bytes]) -> bool:
        return all(lookup(state, k) == v for k, v in txn.reads)

    def search(
        remaining: frozenset, pend: frozenset, state: Dict[int, bytes]
    ) -> bool:
        # the toucher index is shared and mutated along the current
        # search path; every False exit must undo this frame's removals
        # so sibling branches in the caller see accurate conflicts.
        forced_taken: List[int] = []

        def fail() -> bool:
            for i in forced_taken:
                for k in keyset[i]:
                    touchers[k].add(i)
            return False

        while remaining:
            forced = None
            for i in remaining:
                if i == final_idx:
                    continue
                if forced_eligible(i):
                    forced = i
                    break
            if forced is None:
                break
            if not reads_match(completed[forced], state):
                return fail()  # no order puts a concurrent toucher first
            state = dict(state)
            state.update(completed[forced].writes)
            remaining = remaining - {forced}
            forced_taken.append(forced)
            for k in keyset[forced]:
                touchers[k].discard(forced)
        if not remaining:
            return True
        key = (remaining, pend, frozenset(state.items()))
        if key in memo:
            return fail()
        if len(memo) > _MEMO_LIMIT:
            raise RuntimeError("serializability search exceeded the memo limit")
        memo.add(key)
        horizon = min(completed[i].respond for i in remaining)
        for i in sorted(remaining, key=lambda i: completed[i].respond):
            txn = completed[i]
            if txn.invoke > horizon:
                continue
            if reads_match(txn, state):
                child = dict(state)
                child.update(txn.writes)
                if i != final_idx:
                    for k in keyset[i]:
                        touchers[k].discard(i)
                hit = search(remaining - {i}, pend, child)
                if i != final_idx:
                    for k in keyset[i]:
                        touchers[k].add(i)
                if hit:
                    return True
        for j in sorted(pend):
            txn = pending[j]
            if txn.invoke > horizon:
                continue
            if reads_match(txn, state):
                child = dict(state)
                child.update(txn.writes)
                for k in pend_keyset[j]:
                    touchers[k].discard(n_completed + j)
                hit = search(remaining, pend - {j}, child)
                for k in pend_keyset[j]:
                    touchers[k].add(n_completed + j)
                if hit:
                    return True
        return fail()

    if search(
        frozenset(range(len(completed))),
        frozenset(range(len(pending))),
        {},
    ):
        return None
    return (
        "no serial order of %d committed txns (%d pending) respects the "
        "real-time order and explains the observed reads"
        % (len(completed), len(pending))
    )


# ---------------------------------------------------------------------------
# verdict and message == the oracle's
# ---------------------------------------------------------------------------

ZERO = b"\x00" * 4
VALUES = [b"aaaa", b"bbbb", b"cccc"]

#: how one transaction of a drawn run ends; most end well
FATES = ["committed"] * 12 + [
    "aborted", "leaked", "pending-applied", "pending-lost", "no-response",
    "torn", "wrong-read", "shifted", "backwards",
]


@st.composite
def concurrent_history(draw):
    """A small multi-client run, logged with everything that goes wrong.

    Each client issues its transactions one after another; each takes
    effect at one instant inside its interval, in the order of those
    instants, against a real store — so the log is serializable until a
    fate breaks it: an abort (whose writes may leak), a lost commit ack
    (pending, applied or not), a commit logged without a response time,
    a commit that installed only part of its writes, a read of a value
    that was not there, an interval moved away from the instant of
    effect (a real-time violation), a response before the invocation.
    Record ``i`` owns the instants ``2i`` and ``2i + 1`` modulo 100, so
    no two timestamps of a history coincide (see the module docstring).
    """
    n_keys = draw(st.integers(1, 4))
    n_clients = draw(st.integers(1, 4))
    clock = [0] * n_clients
    plans = []
    for i in range(draw(st.integers(1, 8))):
        client = draw(st.integers(0, n_clients - 1))
        start = clock[client] + draw(st.integers(0, 3))
        clock[client] = end = start + draw(st.integers(1, 6))
        invoke, respond = 100 * start + 2 * i, 100 * end + 2 * i + 1
        plans.append((draw(st.integers(invoke, respond)), i, client, invoke, respond))
    store = {k: ZERO for k in range(n_keys)}
    history = []
    for _effect, i, client, invoke, respond in sorted(plans):
        keys = draw(
            st.lists(st.integers(0, n_keys - 1), min_size=1, max_size=3, unique=True)
        )
        kind = draw(st.sampled_from(["read-only", "blind-write", "both", "both"]))
        reads = [] if kind == "blind-write" else [(k, store[k]) for k in keys]
        writes = [] if kind == "read-only" else [
            (k, draw(st.sampled_from(VALUES)))
            for k in keys
            if kind == "blind-write" or draw(st.booleans())
        ]
        fate = draw(st.sampled_from(FATES))
        status, applied = "committed", writes
        if fate == "aborted":
            status, applied = "aborted", []
        elif fate == "leaked":
            status = "aborted"
        elif fate == "pending-applied":
            status, respond = "pending", None
        elif fate == "pending-lost":
            status, respond, applied = "pending", None, []
        elif fate == "no-response":
            respond = None
        elif fate == "torn":
            applied = writes[1:]
        elif fate == "wrong-read" and reads:
            reads[0] = (reads[0][0], draw(st.sampled_from(VALUES + [ZERO])))
        elif fate == "shifted":
            shift = 100 * draw(st.integers(-8, 8))
            invoke, respond = invoke + shift, respond + shift
        elif fate == "backwards":
            invoke, respond = respond, invoke
        store.update(applied)
        history.append(TxnRecord(
            txn_id=i, client=client, reads=tuple(reads), writes=tuple(writes),
            invoke=float(invoke), respond=None if respond is None else float(respond),
            status=status,
        ))
    final = draw(st.sampled_from(["none", "scan", "torn-scan"]))
    if final == "torn-scan":
        store[draw(st.integers(0, n_keys - 1))] = draw(st.sampled_from(VALUES))
    return (
        draw(st.permutations(history)),
        {k: ZERO for k in range(n_keys)},
        None if final == "none" else store,
    )


@settings(max_examples=600, deadline=None)
@given(concurrent_history())
def test_verdict_and_message_equal_the_recursive_search(case):
    history, initial, final = case
    assert check_serializable(
        history, initial=initial, final=final
    ) == recursive_check_serializable(history, initial=initial, final=final)


def test_an_invocation_at_a_response_instant_is_concurrent():
    # Intervals are closed: write B, invoked at the instant write C
    # responds, may serialize before it.  Read C then sees C: the order
    # w A, r A, w A, w B, w C, r C.  A forced step that counted B as
    # after C committed C first, and the history read as violated.
    A, B, C = b"A", b"B", b"C"
    ops = [("w", A, 0, 3), ("w", A, 8, 8), ("r", A, 7, 9),
           ("w", C, 9, 11), ("w", B, 11, 17), ("r", C, 11, 18)]
    history = [
        TxnRecord(
            txn_id=i, client=i,
            reads=((0, value),) if kind == "r" else (),
            writes=((0, value),) if kind == "w" else (),
            invoke=float(invoke), respond=float(respond),
        )
        for i, (kind, value, invoke, respond) in enumerate(ops)
    ]
    assert check_serializable(history, initial={0: A}, final={0: C}) is None
    # the second write of A responded before C and B were invoked
    assert check_serializable(history, initial={0: A}, final={0: A}) is not None


@functools.lru_cache(maxsize=None)
def audited(dataplane, hot_fraction, seed, measure_ns=150_000.0):
    """What one benchmark cell hands ``check_serializable``."""
    seen = []

    def spy(history, initial=None, final=None):
        seen.append((list(history), initial, final))
        return check_serializable(history, initial=initial, final=final)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.txn.cluster, "check_serializable", spy)
        report = run_txn(
            dataplane, hot_fraction=hot_fraction, measure_ns=measure_ns, seed=seed
        )
    assert report.ok, report.violation
    (call,) = seen
    return call


#: the cell benchmarks/perf/README.md ("Sizing limits") met at 20-100x the
#: median: 1.7 s in the oracle, whose search fails and backtracks in it
PATHOLOGICAL = ("rpc", 0.0, derive_seed(1, "cell.1"))
HOT_RPC = ("rpc", 0.9, derive_seed(0, "cell.0"))
COLD_ONESIDED = ("onesided", 0.0, derive_seed(0, "cell.0"))


@pytest.mark.parametrize("cell", [HOT_RPC, COLD_ONESIDED], ids=lambda c: c[0])
def test_verdict_equals_the_recursive_search_on_benchmark_cells(cell):
    history, initial, final = audited(*cell)
    assert recursive_check_serializable(history, initial=initial, final=final) is None
    # a store scan holding a value nobody wrote fails the audit (the
    # oracle runs into its memo limit on the rpc cell instead)
    torn = {**final, max(final): b"\xff" * len(final[max(final)])}
    assert check_serializable(history, initial=initial, final=torn) is not None


# ---------------------------------------------------------------------------
# depth and the memo limit
# ---------------------------------------------------------------------------


def chain(n, last_reads=None):
    """``n`` read-modify-writes of key 0, each overlapping the next.

    Nothing is forced (the successor is invoked before the response),
    so the search needs one choice point per record.
    """
    value = [ZERO] + [i.to_bytes(4, "big") for i in range(1, n + 1)]
    history = [
        TxnRecord(i, i % 2, ((0, value[i]),), ((0, value[i + 1]),),
                  10.0 * i, 10.0 * i + 15.0)
        for i in range(n)
    ]
    if last_reads is not None:
        history[-1].reads = ((0, last_reads),)
    return history, {0: ZERO}, {0: value[n]}


@pytest.fixture
def default_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(before)


def test_a_choice_point_per_record_does_not_use_the_interpreter_stack(
    default_recursion_limit,
):
    history, initial, final = chain(1200)
    with pytest.raises(RecursionError):
        recursive_check_serializable(history, initial=initial, final=final)
    history, initial, final = chain(3000)
    assert check_serializable(history, initial=initial, final=final) is None
    # the failing direction unwinds 3 000 choice points the same way
    history, initial, final = chain(3000, last_reads=ZERO)
    assert check_serializable(history, initial=initial, final=final) == (
        "no serial order of 3001 committed txns (0 pending) respects the "
        "real-time order and explains the observed reads"
    )


def test_the_cell_that_died_of_recursion_completes(default_recursion_limit):
    # benchmarks/perf/README.md, "Sizing limits": RecursionError before
    report = run_txn(dataplane="rpc", hot_fraction=0.5, measure_ns=1_500_000)
    assert report.ok, report.violation
    assert report.torn_writes == 0


def blind_writers(n):
    """``n`` concurrent blind writes of key 0, then a read nobody explains:
    the search fails from every (subset taken, last value) state."""
    history = [
        TxnRecord(i, i, (), ((0, bytes([65 + i]) * 4),), 0.0, 100.0) for i in range(n)
    ]
    history.append(TxnRecord(n, n, ((0, b"zzzz"),), (), 200.0, 201.0))
    return history


def test_memo_limit_still_raises(monkeypatch):
    history = blind_writers(6)
    verdict = check_serializable(history, initial={0: ZERO})
    assert verdict is not None
    assert verdict == recursive_check_serializable(history, initial={0: ZERO})
    assert checker._MEMO_LIMIT == 200_000
    monkeypatch.setattr(checker, "_MEMO_LIMIT", 40)
    with pytest.raises(RuntimeError, match="serializability search exceeded the memo limit"):
        check_serializable(history, initial={0: ZERO})


# ---------------------------------------------------------------------------
# counts, not clocks
# ---------------------------------------------------------------------------


def python_calls(fn):
    """Python-level function calls made while ``fn`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    before = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(before)
    return calls


def lines_run(fn):
    """Source lines executed while ``fn`` runs — what a loop written out
    inside ``check_serializable`` costs, which no call count sees."""
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    before = sys.gettrace()
    sys.settrace(count)
    try:
        fn()
    finally:
        sys.settrace(before)
    return lines


def audit(cell):
    history, initial, final = audited(*cell)
    return len(history), lambda: check_serializable(history, initial=initial, final=final)


#: cell -> (records, Python-level calls of one audit as ``<=``).  Before
#: the cursors and the trail: 5 575 246, 157 008 and 38 045.
CALL_BUDGET = {
    PATHOLOGICAL: (267, 6_000),
    HOT_RPC: (337, 6_000),
    COLD_ONESIDED: (308, 1_200),
}


@pytest.mark.parametrize("cell", CALL_BUDGET, ids=lambda c: "%s-%s" % c[:2])
def test_python_calls_per_audit_within_budget(cell):
    records, budget = CALL_BUDGET[cell]
    n, run = audit(cell)
    assert n == records
    assert python_calls(run) <= budget


def test_the_heavy_tail_is_gone_across_seeds():
    # README: rpc / hot 0.5 over 60 seeds, median 0.017 s, maximum 2.86 s
    for seed in range(12):
        n, run = audit(("rpc", 0.5, seed))
        assert python_calls(run) <= 2_500, seed


@pytest.mark.parametrize(
    "dataplane,hot_fraction",
    [("rpc", 0.0), ("rpc", 0.5), ("rpc", 0.9), ("onesided", 0.0)],
)
def test_cost_per_record_does_not_grow_with_the_history(dataplane, hot_fraction):
    # four times the window, four times the records: a rescan or a copy
    # of the history per step would make each record cost four times more
    small, run_small = audit((dataplane, hot_fraction, 0, 150_000.0))
    large, run_large = audit((dataplane, hot_fraction, 0, 600_000.0))
    assert large > 3 * small
    for count in (python_calls, lines_run):
        assert count(run_large) / large <= 1.2 * count(run_small) / small, count


# ---------------------------------------------------------------------------
# what the benchmark books to ``txn``
# ---------------------------------------------------------------------------


def test_every_frame_of_the_search_is_booked_to_txn(monkeypatch):
    # benchmarks/perf attributes frames of repro/ha/checker.py to ``txn``
    # by the source lines of check_serializable, final_read_txn and
    # TxnRecord: a helper of the search moved to module level would be
    # booked to ``ha`` and silently redefine txn.checker_self_s
    monkeypatch.syspath_prepend(os.path.join(REPO, "benchmarks", "perf"))
    spec = importlib.util.spec_from_file_location(
        "perf_trace", os.path.join(REPO, "benchmarks", "perf", "perf_trace.py")
    )
    perf_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_trace)
    txn_lines = perf_trace.txn_checker_lines()

    history, initial, final = audited(*PATHOLOGICAL)
    profiler = cProfile.Profile()
    profiler.runcall(check_serializable, history, initial=initial, final=final)
    profiler.runcall(check_serializable, blind_writers(4), initial={0: ZERO})
    frames = [
        key for key in pstats.Stats(profiler).stats
        if key[0] == checker.__file__
    ]
    assert {"check_serializable", "final_read_txn", "take", "state_key"} <= {
        name for _file, _line, name in frames
    }
    for key in frames:
        assert perf_trace.layer_of(key, txn_lines) == "txn", key
