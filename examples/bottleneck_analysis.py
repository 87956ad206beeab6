#!/usr/bin/env python
"""Why is the throughput what it is? — closed-form bottleneck analysis.

`repro.analysis.BottleneckModel` computes each scenario's per-resource
service demands — pricing every posted verb with `repro.verbs.plan_for`,
the function the simulated NIC prices it with — and predicts the
saturation throughput; the simulator should agree.  This example prints predictions, measurements,
and the binding resource for the paper's headline numbers.

Run:  python examples/bottleneck_analysis.py
"""

from repro.analysis import BottleneckModel
from repro.bench.figures import run_farm, run_herd, run_pilaf
from repro.bench.microbench import inbound_throughput, outbound_throughput
from repro.verbs import Transport


def main() -> None:
    model = BottleneckModel()
    rows = [
        (
            "inbound WRITE (32 B)",
            model.inbound_write(32),
            lambda: inbound_throughput("WRITE", Transport.UC, 32),
        ),
        (
            "inbound READ (32 B)",
            model.inbound_read(32),
            lambda: inbound_throughput("READ", Transport.RC, 32),
        ),
        (
            "outbound inlined WRITE (32 B)",
            model.outbound_inline(32),
            lambda: outbound_throughput("WR-INLINE", 32),
        ),
        (
            "HERD, 48 B items, 95% GET",
            model.herd(value_size=32, get_fraction=0.95),
            lambda: run_herd(value_size=32, get_fraction=0.95).mops,
        ),
        (
            "HERD, 1000 B values, 95% GET",
            model.herd(value_size=1000, get_fraction=0.95),
            lambda: run_herd(value_size=1000, get_fraction=0.95).mops,
        ),
        (
            "Pilaf-em GETs",
            model.pilaf_get(32),
            lambda: run_pilaf(value_size=32, get_fraction=1.0).mops,
        ),
        (
            "FaRM-em GETs",
            model.farm_get(32),
            lambda: run_farm(value_size=32, get_fraction=1.0).mops,
        ),
    ]
    print("%-32s %10s %10s   %s" % ("scenario", "predicted", "measured", "bottleneck"))
    print("-" * 80)
    for name, prediction, measure in rows:
        measured = measure()
        print(
            "%-32s %8.1f M %8.1f M   %s (%.1f ns/op)"
            % (
                name,
                prediction.mops,
                measured,
                prediction.bottleneck,
                prediction.demands_ns[prediction.bottleneck],
            )
        )
    print(
        "\nHERD's binding resource at peak is the PIO path — exactly the\n"
        "paper's Section 5.7 observation that 'the server processes\n"
        "saturate the PCIe PIO throughput'.  Above the 144 B inline\n"
        "cutoff the responses are fetched over DMA, which binds instead."
    )


if __name__ == "__main__":
    main()
