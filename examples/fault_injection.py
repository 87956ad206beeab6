#!/usr/bin/env python
"""HERD under packet loss: application-level retries (Section 2.2.3).

InfiniBand is lossless in normal operation, so HERD runs its requests
over Unreliable Connection and its responses over Unreliable Datagram —
"sacrificing transport-level retransmission for fast common case
performance at the cost of rare application-level retries".  This
example injects bit errors on the path toward the server and shows the
retry machinery recovering every operation.

Run:  python examples/fault_injection.py
"""

from repro.faults import FaultPlan
from repro.herd import HerdCluster, HerdConfig
from repro.workloads import Workload


def run(loss_rate: float, retry_timeout_ns):
    cluster = HerdCluster(
        HerdConfig(
            n_server_processes=2, window=2, retry_timeout_ns=retry_timeout_ns
        ),
        n_client_machines=2,
        seed=11,
    )
    cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=256))
    cluster.preload(range(256), 32)
    cluster.install_faults(FaultPlan(seed=11).drop(dst="server", rate=loss_rate))
    result = cluster.run(warmup_ns=0, measure_ns=600_000)
    return cluster, result


def main() -> None:
    print("4 clients, 50/50 GET/PUT, 5% of packets toward the server dropped\n")

    cluster, result = run(loss_rate=0.05, retry_timeout_ns=None)
    stalled = sum(
        1 for c in cluster.clients if c.outstanding == cluster.config.window
    )
    print("without retries:")
    print("  ops completed : %d" % result.ops)
    print("  stalled client windows: %d of %d" % (stalled, len(cluster.clients)))

    cluster, result = run(loss_rate=0.05, retry_timeout_ns=40_000.0)
    print("\nwith 40 us application-level retries:")
    print("  ops completed : %d" % result.ops)
    print("  packets dropped: %d" % cluster.fabric.dropped)
    print("  retries sent  : %d" % sum(c.retries for c in cluster.clients))
    print("  duplicates    : %d" % sum(c.duplicate_responses for c in cluster.clients))
    print("  failures      : %d" % sum(c.failures for c in cluster.clients))


if __name__ == "__main__":
    main()
