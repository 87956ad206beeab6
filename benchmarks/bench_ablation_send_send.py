"""Ablation (Section 5.5): WRITE/SEND hybrid vs a SEND/SEND HERD.

The design choice under test: HERD takes requests as RDMA WRITEs into a
polled region, which peaks higher but holds per-client responder state
in the NIC; taking requests as SENDs over UD costs ~4-5 Mops yet keeps
its peak at client counts where the hybrid has already declined.
"""

from repro.bench.report import FigureData, Series, format_figure
from repro.bench.figures import run_herd
from repro.herd import HerdCluster, HerdConfig
from repro.workloads import Workload

CLIENT_COUNTS = (51, 260, 460)


def run_send_send(n_clients: int) -> float:
    cluster = HerdCluster(
        HerdConfig(n_server_processes=6, request_transport="UD"),
        n_client_machines=max(17, n_clients // 5),
    )
    cluster.add_clients(
        n_clients, Workload(get_fraction=0.95, value_size=32, n_keys=1 << 12)
    )
    cluster.preload(range(1 << 12), 32)
    return cluster.run(measure_ns=120_000.0).mops


def build() -> FigureData:
    hybrid = Series(
        "WRITE/SEND hybrid",
        [
            (
                n,
                run_herd(
                    n_clients=n,
                    n_client_machines=max(17, n // 5),
                    measure_ns=120_000.0,
                ).mops,
            )
            for n in CLIENT_COUNTS
        ],
    )
    send_send = Series(
        "SEND/SEND over UD", [(n, run_send_send(n)) for n in CLIENT_COUNTS]
    )
    return FigureData(
        "ablation-send-send",
        "Request path: WRITE-into-region vs SEND-over-UD",
        "client processes",
        "Mops",
        [hybrid, send_send],
    )


def test_ablation_send_send(benchmark, emit):
    data = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("ablation_send_send", format_figure(data))

    hybrid = data.series_by_label("WRITE/SEND hybrid")
    send_send = data.series_by_label("SEND/SEND over UD")

    # At moderate scale the hybrid wins by the paper's 4-5 Mops.
    gap = hybrid.y_for(51) - send_send.y_for(51)
    assert 2.0 < gap < 8.0
    # At large scale the roles reverse: SEND/SEND holds its peak.
    assert send_send.y_for(460) > 0.9 * send_send.y_for(51)
    assert send_send.y_for(460) > hybrid.y_for(460)
