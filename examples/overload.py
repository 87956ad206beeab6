"""Overload protection under a flash crowd (repro.qos).

The paper's closed-loop clients cannot overload a server: each keeps a
fixed window of outstanding requests, so offered load is capped by
completion rate.  Real front-ends are open-loop — requests arrive on
their own schedule — and that is the regime where admission control
earns its keep.  Three steps:

1. an open-loop cluster under a 10x flash crowd *with* admission
   control: bounded queues, CoDel sojourn control, and
   ``RESP_RETRY_AFTER`` nacks hold in-SLO goodput through the burst;
2. the same crowd with every limit off: queueing delay ramps without
   bound and in-SLO goodput collapses — the control arm;
3. a two-tenant cluster where one tenant floods 10x: per-tenant token
   buckets and weighted fair admission throttle the aggressor while
   the well-behaved tenant's p99 barely moves.

Run:  python examples/overload.py
"""

from repro.faults import run_chaos
from repro.herd import HerdCluster, HerdConfig
from repro.qos import QosConfig
from repro.workloads import FlashCrowdArrivals, Workload
from repro.faults.rng import child_rng


def protected_flash_crowd() -> None:
    """The qos-smoke scenario: goodput holds through a 10x crowd."""
    report = run_chaos(seed=7, scenario="flash-crowd", shedding=True)
    print(report.summary())
    print(
        "protected: goodput ratio %.2f (floor 0.70), %d shed, "
        "%d retry-after nacks, %d lost acked writes"
        % (
            report.goodput_ratio,
            report.shed,
            report.retry_after_nacks,
            report.ops_lost,
        )
    )


def unprotected_collapse() -> None:
    """Same crowd, no admission control: the motivating failure."""
    print()
    report = run_chaos(seed=7, scenario="flash-crowd", shedding=False)
    print(
        "unprotected: goodput ratio %.2f — in-SLO goodput collapsed "
        "(p99.9 %.1f us) once the queue-filling ramp ended"
        % (report.goodput_ratio, report.p999_us)
    )


def aggressor_and_victim() -> None:
    """Tenant isolation: quotas + weighted fair admission."""
    print()
    report = run_chaos(seed=7, scenario="aggressor-tenant", shedding=True)
    print(
        "aggressor-tenant: victim p99 %.1f us, aggressor p99 %.1f us, "
        "%d sheds, %d retry-after nacks — the victim's tail stays in "
        "single-digit microseconds while the aggressor queues behind "
        "its own quota"
        % (
            report.tenant_p99_us[0],
            report.tenant_p99_us[1],
            report.shed,
            report.retry_after_nacks,
        )
    )


def hand_built_cluster() -> None:
    """The same machinery on a cluster you wire yourself."""
    print()
    config = HerdConfig(
        n_server_processes=2,
        window=32,
        retry_timeout_ns=30_000.0,
        qos=QosConfig(
            queue_limit=32,           # bounded request queue per partition
            codel_target_ns=4_000.0,  # sojourn SLO target
            retry_after_ns=16_000.0,  # client ingress pause per nack
            qp_pool=4,                # bounded server UC QP pool
        ),
    )
    cluster = HerdCluster(config=config, n_client_machines=4, seed=3)
    cluster.add_clients(8, Workload(get_fraction=0.5, value_size=32, n_keys=256))
    # attaching an ArrivalProcess makes a client open-loop: ops arrive
    # on the process's schedule instead of refilling the window
    for client in cluster.clients:
        client.arrivals = FlashCrowdArrivals(
            0.45,  # steady ops/us per client: well under capacity
            child_rng(3, "qos.client%d.arrivals" % client.client_id),
            burst_factor=10.0,
            burst_start_ns=120_000.0,
            burst_end_ns=240_000.0,
        )
    cluster.wire()
    cluster.preload(range(256), 32)
    result = cluster.run(warmup_ns=0, measure_ns=300_000)
    runtime = cluster.qos_runtime
    print(
        "hand-built cluster: %.2f Mops through the burst, %d offered, "
        "%d shed by reason %s"
        % (
            result.mops,
            sum(c.offered for c in cluster.clients),
            runtime.total_shed,
            dict(runtime.shed),
        )
    )


def main() -> None:
    protected_flash_crowd()
    unprotected_collapse()
    aggressor_and_victim()
    hand_built_cluster()


if __name__ == "__main__":
    main()
