"""Validation: the paper's emulation methodology vs full systems.

The paper evaluates *stripped-down* Pilaf and FaRM whose servers answer
instantly, arguing this gives the baselines "the maximum performance
advantage possible" (Section 5.1).  Because our substrate is simulated,
we can run the *full* systems — real cuckoo/hopscotch tables inside
registered regions, clients parsing real bucket bytes — and check the
claim: the emulated numbers should be close to (and not dramatically
below) the real systems' GET throughput.
"""

from repro.baselines.farm import (
    FarmCluster,
    FarmConfig,
    FarmFullCluster,
    FarmFullConfig,
)
from repro.baselines.pilaf import (
    PilafCluster,
    PilafConfig,
    PilafFullCluster,
    PilafFullConfig,
)
from repro.bench.report import FigureData, Series, format_figure
from repro.workloads import Workload


def build():
    """The figure, and the two full systems' results."""
    workload = Workload(get_fraction=1.0, value_size=32, n_keys=6000)

    pilaf_em = PilafCluster(PilafConfig(value_bytes=32), workload).run().mops
    pilaf_full = PilafFullCluster(PilafFullConfig(value_bytes=32), workload)
    pilaf_full.preload(range(6000))
    pilaf_full_result = pilaf_full.run()

    farm_em = FarmCluster(FarmConfig(value_bytes=32), workload).run().mops
    farm_full = FarmFullCluster(FarmFullConfig(value_bytes=32), workload)
    farm_full.preload(range(6000))
    farm_full_result = farm_full.run()

    series = [
        Series("emulated (paper)", [("Pilaf", pilaf_em), ("FaRM", farm_em)]),
        Series(
            "full system (ours)",
            [("Pilaf", pilaf_full_result.mops), ("FaRM", farm_full_result.mops)],
        ),
    ]
    notes = [
        "Pilaf-full avg probes (emergent): %.2f vs the paper's assumed 1.6"
        % pilaf_full_result.extra["avg_probes"],
        "wrong values: %d (full-system GETs verify every byte)"
        % int(
            pilaf_full_result.extra["wrong_values"]
            + farm_full_result.extra["wrong_values"]
        ),
    ]
    data = FigureData(
        "validation-emulation",
        "Emulated baselines vs full systems (100% GET, 48 B items)",
        "system",
        "Mops",
        series,
        notes=notes,
    )
    return data, {"Pilaf": pilaf_full_result, "FaRM": farm_full_result}


def test_validation_emulation(benchmark, emit):
    data, full_results = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("validation_emulation", format_figure(data))

    # Every full-system GET found its preloaded key and read back
    # exactly the bytes stored.
    for system, result in full_results.items():
        assert result.extra["get_misses"] == 0, system
        assert result.extra["wrong_values"] == 0, system

    emulated = data.series_by_label("emulated (paper)")
    full = data.series_by_label("full system (ours)")

    # The emulation tracks the full system within ~35% for both
    # baselines — the paper's comparison method is sound.
    for system in ("Pilaf", "FaRM"):
        gap = abs(full.y_for(system) - emulated.y_for(system))
        assert gap / emulated.y_for(system) < 0.35, system
