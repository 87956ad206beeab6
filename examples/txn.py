"""Multi-key transactions: RPC vs one-sided commit (repro.txn).

The paper prices RPC against one-sided READs for single-key GETs; the
transactional sequel prices a server-mediated two-phase commit against
a FaRM-style client-driven commit (READ / CAS-lock / validate /
WRITE-install) over the same partitioned store.  Four steps:

1. both dataplanes on the same uncontended workload — one-sided wins
   by bypassing the server CPU, and every run is audited by the
   strict-serializability checker;
2. the same cluster with 90% of transactions on a 4-key hot set —
   CAS retries burn the one-sided dataplane down while the server's
   serialization one-shots single-partition commits;
3. a crash arm: pause one partition's server mid-run — RPC commits
   stall behind retries, one-sided commits keep landing
   (``commits_in_outage``), both with zero torn writes;
4. the remote FIFO queue both ways, plus a hand-built history fed
   straight to ``check_serializable`` — including a write-skew
   history the checker rejects.

Run:  python examples/txn.py
"""

from repro.faults import FaultPlan
from repro.ha import TxnRecord, check_serializable
from repro.txn import QueueConfig, TxnCluster, TxnConfig, TxnQueueCluster

RUN = dict(warmup_ns=20_000.0, measure_ns=120_000.0)


def uncontended_crossover() -> None:
    """Cold keys: the one-sided dataplane's CPU bypass wins."""
    for dataplane in ("rpc", "onesided"):
        config = TxnConfig(dataplane=dataplane, n_keys=512)
        report = TxnCluster(config, n_clients=12, seed=0).run(**RUN)
        assert report.ok, report.violation
        print(report.summary())


def contended_crossover() -> None:
    """Hot keys: the server's serialization is the feature."""
    print()
    for dataplane in ("rpc", "onesided"):
        config = TxnConfig(
            dataplane=dataplane,
            n_keys=512,
            hot_fraction=0.9,  # 90% of txns draw from the hot set
            n_hot=4,           # ... of 4 keys, all in partition 0
        )
        report = TxnCluster(config, n_clients=12, seed=0).run(**RUN)
        assert report.ok, report.violation
        print("hot   %s" % report.summary())


def crash_arm() -> None:
    """CPU bypass, other face: commits land while the server is down."""
    print()
    for dataplane in ("rpc", "onesided"):
        cluster = TxnCluster(TxnConfig(dataplane=dataplane), n_clients=8, seed=3)
        # partition 0's participant is down 40..100 us
        cluster.install_faults(FaultPlan().crash_server(0, 40_000.0, 60_000.0))
        report = cluster.run(warmup_ns=0.0, measure_ns=160_000.0)
        assert report.ok and report.torn_writes == 0
        print(
            "crash %s: %d commits, %d during the outage, torn=%d"
            % (dataplane, report.commits, report.commits_in_outage,
               report.torn_writes)
        )


def remote_queue() -> None:
    """The same design axis for a remote data structure."""
    print()
    for dataplane, ticket_mode in (
        ("rpc", "cas"),          # ticket_mode ignored: server-side deque
        ("onesided", "cas"),     # enqueue tickets claimed by CAS retry
        ("onesided", "faa"),     # ... or by FETCH_ADD, which cannot lose
    ):
        config = QueueConfig(dataplane=dataplane, ticket_mode=ticket_mode)
        report = TxnQueueCluster(config, n_clients=6, seed=0).run()
        assert report.ok, report.violations
        print(report.summary())


def checker_by_hand() -> None:
    """Feed the serializability checker a history you wrote yourself."""
    print()
    a, b = b"A" * 16, b"B" * 16

    # T1 writes {0: a}; T2, invoked strictly after T1 responded, reads it.
    ok = check_serializable(
        [
            TxnRecord(1, client=0, reads=(), writes=((0, a),),
                      invoke=0.0, respond=5.0),
            TxnRecord(2, client=1, reads=((0, a),), writes=(),
                      invoke=10.0, respond=15.0),
        ],
        final={0: a},
    )
    print("sequential read-your-write: %s" % ("ok" if ok is None else ok))

    # Write skew: two concurrent txns each read the *initial* state of
    # both keys, then each writes the key the other read.  No serial
    # order explains both reads — the exact anomaly the RPC dataplane's
    # lock-all-then-validate ordering exists to prevent.
    zero = b"\x00" * 16
    verdict = check_serializable(
        [
            TxnRecord(1, client=0, reads=((0, zero), (1, zero)),
                      writes=((0, a),), invoke=0.0, respond=10.0),
            TxnRecord(2, client=1, reads=((0, zero), (1, zero)),
                      writes=((1, b),), invoke=0.0, respond=10.0),
        ],
        initial={0: zero, 1: zero},
        final={0: a, 1: b},
    )
    assert verdict is not None
    print("write skew rejected: %s" % verdict)


def main() -> None:
    uncontended_crossover()
    contended_crossover()
    crash_arm()
    remote_queue()
    checker_by_hand()


if __name__ == "__main__":
    main()
