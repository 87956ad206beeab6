"""Baseline capture and regression-gate verdicts."""

import json

import pytest

from repro.lab import (
    Axis,
    SweepSpec,
    capture_baseline,
    check,
    load_baseline,
    metric_direction,
    write_baseline,
    write_bench_json,
)
from repro.lab.gate import DEFAULT_TOLERANCES, bench_json, tolerance_for


def spec_and_results(n=2):
    spec = SweepSpec(
        name="g", task="herd", axes=[Axis("value_size", [32 * (i + 1) for i in range(n)])]
    )
    results = {}
    for point in spec.points():
        results[point.label] = {
            "label": point.label,
            "task": "herd",
            "status": "ok",
            "metrics": {
                "mops": 10.0,
                "p50_us": 3.0,
                "p99_us": 5.0,
                "mean_us": 3.2,
                "obs/sim_time_ns": 1e5,
            },
        }
    return spec, results


def perturbed(results, metric, factor):
    out = {}
    for label, record in results.items():
        clone = dict(record)
        clone["metrics"] = dict(record["metrics"])
        out[label] = clone
    first = sorted(out)[0]
    out[first]["metrics"][metric] *= factor
    return out


def test_metric_directions():
    assert metric_direction("mops") == 1
    assert metric_direction("ok") == 1
    assert metric_direction("p99_us") == -1
    assert metric_direction("obs/sim_time_ns") == -1
    assert metric_direction("HERD Mops/32") == 0
    assert metric_direction("retries") == -1


def test_baseline_captures_headline_metrics_only():
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    for label, metrics in baseline["points"].items():
        assert set(metrics) == {"mops", "p50_us", "p99_us"}
    assert baseline["spec"] == "g"
    assert baseline["tolerances"]["mops"] == DEFAULT_TOLERANCES["mops"]


def test_baseline_requires_every_point():
    spec, results = spec_and_results()
    results.pop(sorted(results)[0])
    with pytest.raises(ValueError, match="no stored result"):
        capture_baseline(spec, results)


def test_gate_passes_on_identical_results():
    spec, results = spec_and_results()
    report = check(spec, results, capture_baseline(spec, results))
    assert report.passed
    assert not report.regressions and not report.improvements
    assert len(report.entries) == 6  # 2 points x 3 headline metrics
    assert "PASS" in report.summary()


def test_gate_fails_on_throughput_drop_beyond_tolerance():
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    report = check(spec, perturbed(results, "mops", 0.9), baseline)
    assert not report.passed
    (bad,) = report.regressions
    assert bad.metric == "mops" and bad.status == "regression"
    assert bad.worse_by == pytest.approx(0.1)
    assert "FAIL" in report.summary()


def test_gate_ignores_drop_within_tolerance():
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    report = check(spec, perturbed(results, "mops", 0.97), baseline)
    assert report.passed


def test_gate_fails_on_latency_rise_but_not_fall():
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    worse = check(spec, perturbed(results, "p99_us", 1.5), baseline)
    assert not worse.passed and worse.regressions[0].metric == "p99_us"
    better = check(spec, perturbed(results, "p99_us", 0.5), baseline)
    assert better.passed
    assert better.improvements and better.improvements[0].metric == "p99_us"


def test_throughput_gain_is_an_improvement_not_a_failure():
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    report = check(spec, perturbed(results, "mops", 1.5), baseline)
    assert report.passed
    assert report.improvements and report.improvements[0].metric == "mops"


def test_missing_point_fails_the_gate():
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    partial = dict(results)
    partial.pop(sorted(partial)[0])
    report = check(spec, partial, baseline)
    assert not report.passed
    assert all(e.status == "missing" for e in report.regressions)


def test_extra_points_are_listed_but_not_gated():
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    extra = dict(results)
    extra["herd(value_size=999)"] = dict(sorted(results.items())[0][1])
    report = check(spec, extra, baseline)
    assert report.passed
    assert report.ungated == ["herd(value_size=999)"]


def test_tolerance_override_in_baseline():
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results, tolerances={"default": 0.5, "mops": 0.5})
    report = check(spec, perturbed(results, "mops", 0.7), baseline)
    assert report.passed


def test_tolerance_lookup_prefers_exact_then_suffix():
    tolerances = {"default": 0.1, "mops": 0.2, "HERD/mops": 0.3}
    assert tolerance_for("HERD/mops", tolerances) == 0.3
    assert tolerance_for("other/mops", tolerances) == 0.2
    assert tolerance_for("whatever", tolerances) == 0.1


def test_zero_baseline_uses_absolute_worseness():
    spec, results = spec_and_results(n=1)
    baseline = capture_baseline(spec, results)
    label = sorted(results)[0]
    baseline["points"][label] = {"violations": 0.0}
    ok = check(spec, dict(results), baseline)  # current has no 'violations'
    assert not ok.passed  # missing metric fails
    results[label]["metrics"]["violations"] = 0.0
    assert check(spec, results, baseline).passed
    results[label]["metrics"]["violations"] = 1.0
    assert not check(spec, results, baseline).passed


def test_baseline_roundtrip_and_bench_json(tmp_path):
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    path = tmp_path / "base.json"
    write_baseline(baseline, str(path))
    loaded = load_baseline(str(path))
    assert loaded["points"] == baseline["points"]
    report = check(spec, perturbed(results, "mops", 0.5), loaded)
    payload = bench_json(report, loaded)
    assert payload["pass"] is False
    assert payload["n_regressed"] == 1
    label = sorted(results)[0]
    assert payload["metrics"][label]["mops"]["status"] == "regression"
    out = tmp_path / "BENCH_lab.json"
    write_bench_json(report, loaded, str(out))
    written = json.loads(out.read_text())
    assert written["version"] == 2
    assert written["specs"]["g"]["spec"] == "g"
    assert written["pass"] is False
    with pytest.raises(ValueError, match="not a lab baseline"):
        json.dump({"x": 1}, open(tmp_path / "bad.json", "w")) or load_baseline(
            str(tmp_path / "bad.json")
        )


def test_bench_json_merges_specs(tmp_path):
    spec, results = spec_and_results()
    baseline = capture_baseline(spec, results)
    good = check(spec, results, baseline)
    out = tmp_path / "BENCH_lab.json"
    # a file from an earlier gate run of a *different* spec...
    older = bench_json(check(spec, results, baseline), baseline)
    older["spec"] = "older"
    out.write_text(json.dumps({"version": 2, "pass": True, "specs": {"older": older}}))
    # ...keeps that spec's entry alongside the new spec's
    write_bench_json(good, baseline, str(out))
    merged = json.loads(out.read_text())
    assert merged["version"] == 2
    assert set(merged["specs"]) == {"older", "g"}
    assert merged["pass"] is True
    # a failing spec flips the conjunction without erasing the others
    bad = check(spec, perturbed(results, "mops", 0.5), baseline)
    write_bench_json(bad, baseline, str(out))
    merged = json.loads(out.read_text())
    assert set(merged["specs"]) == {"older", "g"}
    assert merged["specs"]["g"]["pass"] is False
    assert merged["pass"] is False


def test_ha_metric_directions_and_tolerances():
    assert metric_direction("availability") == 1
    assert metric_direction("ops_acked") == 1
    assert metric_direction("ops_lost") == -1
    assert metric_direction("goodput_overhead_pct") == -1
    assert metric_direction("failover_latency_us") == -1
    assert DEFAULT_TOLERANCES["ops_lost"] == 0.0
    assert tolerance_for("availability", DEFAULT_TOLERANCES) == 0.005
