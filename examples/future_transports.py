#!/usr/bin/env python
"""Beyond the paper: the two paths past the ~260-client limit.

Section 5.5 sketches two futures for HERD's connection scalability:

1. switch requests to SEND/SEND over Unreliable Datagram
   (costs a few Mops, scales to thousands of clients);
2. wait for Connect-IB's Dynamically Connected transport
   (keeps the WRITE-based design, removes the per-client QP state).

Both are implemented here; this example races all three designs at
moderate and large client counts.

Run:  python examples/future_transports.py
"""

from repro.herd import HerdCluster, HerdConfig
from repro.workloads import Workload

WORKLOAD = dict(get_fraction=0.95, value_size=32, n_keys=1 << 12)


def run_herd(n_clients: int, transport: str) -> float:
    cluster = HerdCluster(
        HerdConfig(n_server_processes=6, request_transport=transport),
        n_client_machines=max(17, n_clients // 5),
        seed=2,
    )
    cluster.add_clients(n_clients, Workload(**WORKLOAD))
    cluster.preload(range(1 << 12), 32)
    return cluster.run(measure_ns=120_000).mops


def main() -> None:
    designs = [
        ("WRITE/SEND over UC (the paper's HERD)", "UC"),
        ("SEND/SEND over UD  (Section 5.5)", "UD"),
        ("WRITE/SEND over DC (Connect-IB)", "DC"),
    ]
    counts = (51, 260, 460)
    print("%-40s" % "design" + "".join("%12s" % ("%d clients" % n) for n in counts))
    for name, transport in designs:
        row = "%-40s" % name
        for n in counts:
            row += "%12.1f" % run_herd(n, transport)
        print(row)
    print(
        "\nThe UC design peaks highest but declines past ~260 clients\n"
        "(QP contexts overflow the NIC's SRAM); both alternatives hold\n"
        "their throughput — exactly the trade-off Section 5.5 describes."
    )


if __name__ == "__main__":
    main()
