"""Cross-validation: the analytic model vs the discrete-event simulator.

If the simulator's emergent throughput drifts from the closed-form
bottleneck analysis, either the queueing behaviour or the calibration
broke; these tests pin the two together.
"""

import pytest

from repro.analysis import BottleneckModel
from repro.bench.figures import run_farm, run_herd, run_pilaf
from repro.bench.microbench import inbound_throughput, outbound_throughput
from repro.hw import APT, SUSITNA
from repro.verbs import Transport

MODEL = BottleneckModel(APT)


def within(measured, predicted, tolerance):
    assert predicted > 0
    assert abs(measured - predicted) / predicted < tolerance, (
        measured,
        predicted,
    )


# ---------------------------------------------------------------------------
# closed-form sanity
# ---------------------------------------------------------------------------


def test_predictions_identify_bottlenecks():
    assert MODEL.inbound_write(32).bottleneck == "nic_ingress"
    assert MODEL.inbound_read(32).bottleneck == "nic_ingress"
    assert MODEL.inbound_write(1024).bottleneck in ("wire", "dma")
    assert MODEL.outbound_non_inline(32).bottleneck == "dma"
    assert MODEL.outbound_read(32).bottleneck == "nic_egress"


def test_paper_headline_rates():
    """The calibration targets from Section 3.2."""
    assert MODEL.inbound_write(32).mops == pytest.approx(35.0, rel=0.05)
    assert MODEL.inbound_read(32).mops == pytest.approx(26.0, rel=0.05)
    assert MODEL.outbound_read(32).mops == pytest.approx(22.0, rel=0.05)
    assert 30.0 < MODEL.outbound_inline(16).mops < 40.0


def test_herd_prediction_matches_paper_band():
    pred = MODEL.herd(value_size=32, get_fraction=0.95, cores=6)
    assert 23.0 < pred.mops < 28.0
    assert pred.bottleneck == "pio"  # Section 5.7: PIO saturates first


def test_herd_single_core_is_cpu_bound():
    pred = MODEL.herd(cores=1)
    assert pred.bottleneck == "cores"
    assert 5.0 < pred.mops < 8.0  # paper: 6.3 Mops on one core


def test_prefetch_removes_memory_from_the_core_budget():
    with_pf = MODEL.herd(cores=1, prefetch=True).mops
    without = MODEL.herd(cores=1, prefetch=False).mops
    assert with_pf > 1.5 * without


def test_susitna_is_slower_than_apt():
    apt = MODEL.herd().mops
    susitna = BottleneckModel(SUSITNA).herd().mops
    assert susitna < 0.75 * apt


# ---------------------------------------------------------------------------
# model vs simulator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("payload", [32, 128, 512])
def test_inbound_write_matches_simulator(payload):
    measured = inbound_throughput("WRITE", Transport.UC, payload)
    within(measured, MODEL.inbound_write(payload).mops, 0.15)


@pytest.mark.parametrize("payload", [32, 256])
def test_inbound_read_matches_simulator(payload):
    measured = inbound_throughput("READ", Transport.RC, payload)
    within(measured, MODEL.inbound_read(payload).mops, 0.15)


def test_outbound_inline_matches_simulator():
    measured = outbound_throughput("WR-INLINE", 32)
    within(measured, MODEL.outbound_inline(32).mops, 0.15)


def test_outbound_non_inline_matches_simulator():
    measured = outbound_throughput("WRITE-UC", 32)
    within(measured, MODEL.outbound_non_inline(32).mops, 0.05)


@pytest.mark.parametrize("payload", [128, 256])
def test_outbound_read_matches_simulator(payload):
    """Every READ is signaled: its CQE shares the DMA engine with the
    response it lands."""
    measured = outbound_throughput("READ-RC", payload)
    within(measured, MODEL.outbound_read(payload).mops, 0.05)


@pytest.mark.parametrize(
    "profile, value_size, bottleneck",
    [
        (APT, 32, "pio"),      # inlined responses: PIO-bound (Section 5.7)
        (APT, 256, "dma"),     # above the 144 B cutoff: fetched over DMA
        (APT, 1000, "dma"),
        (SUSITNA, 1000, "dma"),  # 192 B cutoff, RoCE GRH on every SEND
    ],
    ids=["apt-32", "apt-256", "apt-1000", "susitna-1000"],
)
def test_herd_matches_simulator(profile, value_size, bottleneck):
    """GETs and PUTs are priced as their own plans; above the cutoff the
    mean-size shortcut read 12-22 % low."""
    measured = run_herd(profile, value_size=value_size, get_fraction=0.95).mops
    predicted = BottleneckModel(profile).herd(value_size=value_size, get_fraction=0.95)
    assert predicted.bottleneck == bottleneck
    within(measured, predicted.mops, 0.05)


def test_pilaf_get_matches_simulator():
    measured = run_pilaf(value_size=32, get_fraction=1.0).mops
    within(measured, MODEL.pilaf_get(32).mops, 0.2)


@pytest.mark.parametrize("kind", ["READ", "WRITE", "WR-INLINE"])
@pytest.mark.parametrize("payload", [32, 128])
def test_verb_latency_model_matches_simulator(kind, payload):
    """The closed-form path sum agrees with the simulated latency to
    within 2% for raw verbs (Figure 2)."""
    from repro.bench.microbench import verb_latency

    predicted_us = MODEL.verb_latency_ns(kind, payload) / 1e3
    measured_us = verb_latency(kind, payload)
    assert abs(predicted_us - measured_us) / measured_us < 0.02


def test_echo_latency_model_close():
    """ECHO priced as the echo server and client poll for it."""
    from repro.bench.microbench import verb_latency

    predicted_us = MODEL.verb_latency_ns("ECHO", 32) / 1e3
    measured_us = verb_latency("ECHO", 32)
    assert abs(predicted_us - measured_us) / measured_us < 0.05


def test_latency_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MODEL.verb_latency_ns("ATOMIC", 8)


def test_client_cpu_accounting_matches_section_5_6():
    """Section 5.6: Pilaf's multi-READ GETs cost the most client CPU;
    HERD 'shifts this overhead to the server's CPU'."""
    herd = MODEL.client_cpu_ns_per_op("HERD", get_fraction=1.0)
    pilaf = MODEL.client_cpu_ns_per_op("Pilaf", get_fraction=1.0)
    farm = MODEL.client_cpu_ns_per_op("FaRM", get_fraction=1.0)
    var = MODEL.client_cpu_ns_per_op("FaRM-VAR", get_fraction=1.0)
    assert pilaf > var > farm       # READ count orders client cost
    assert pilaf > 1.5 * herd       # the paper's 'extra READs' overhead
    with pytest.raises(ValueError):
        MODEL.client_cpu_ns_per_op("memcached")


def test_farm_get_matches_simulator():
    measured = run_farm(value_size=32, get_fraction=1.0).mops
    within(measured, MODEL.farm_get(32).mops, 0.2)
    measured_var = run_farm(value_size=32, get_fraction=1.0, inline_values=False).mops
    within(measured_var, MODEL.farm_get(32, inline_values=False).mops, 0.25)
