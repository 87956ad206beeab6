"""Baseline capture and the perf-regression gate.

A *baseline* is a committed JSON file holding, per point label, the
headline metrics of a known-good run (plus per-metric tolerance
bands).  The *gate* re-reads the current result store and fails —
exit code 1 from the CLI — when any headline metric moved in the
**worse** direction by more than its tolerance:

* throughput-like metrics (``mops``, ``ops``, ``completed``, ``ok``)
  regress by dropping;
* latency-like metrics (``*_us``, ``*_ns``) regress by rising;
* anything else is gated in both directions.

Movements in the *better* direction are reported (so a speed-up
prompts a re-baseline) but never fail the gate.  Baselines are keyed
on point labels, not cache keys, so they survive code changes — that
is exactly what makes them a regression oracle.

A gate run can also fold a snapshot into a JSON file (``herd-lab gate
--bench-json PATH``): the current headline numbers, their deltas
against the baseline, and the verdict, one entry per gated spec.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.lab.spec import SweepSpec
from repro.lab.store import code_version
from repro.lab.tasks import headline, metric_direction

#: relative tolerance bands by metric name; "default" covers the rest
DEFAULT_TOLERANCES = {
    "default": 0.08,
    "mops": 0.05,
    "p50_us": 0.10,
    "p99_us": 0.20,
    "ok": 0.0,
    "violations": 0.0,
    # HA task: no acked write may ever be lost; availability is gated
    # tightly (0.5% relative) while timing/overhead get wider bands
    "ops_lost": 0.0,
    "availability": 0.005,
    "failover_latency_us": 0.25,
    "goodput_overhead_pct": 0.5,
}


@dataclass
class GateEntry:
    """One compared metric of one point."""

    label: str
    metric: str
    baseline: float
    current: Optional[float]
    #: signed relative move in the *worse* direction (negative = improved)
    worse_by: float
    tolerance: float
    status: str  # "ok" | "regression" | "improvement" | "missing"

    def describe(self) -> str:
        if self.status == "missing":
            return "MISSING  %s %s (baseline %.4g, no current result)" % (
                self.label, self.metric, self.baseline,
            )
        tag = {"ok": "ok      ", "regression": "REGRESSED", "improvement": "improved"}[
            self.status
        ]
        return "%s %s %s: %.4g -> %.4g (%+.1f%% worse, tol %.0f%%)" % (
            tag, self.label, self.metric, self.baseline, self.current,
            100.0 * self.worse_by, 100.0 * self.tolerance,
        )


@dataclass
class GateReport:
    """Every comparison the gate made, plus the verdict."""

    spec_name: str
    entries: List[GateEntry] = field(default_factory=list)
    ungated: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[GateEntry]:
        return [e for e in self.entries if e.status in ("regression", "missing")]

    @property
    def improvements(self) -> List[GateEntry]:
        return [e for e in self.entries if e.status == "improvement"]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = ["gate %s: %s" % (self.spec_name, "PASS" if self.passed else "FAIL")]
        for entry in self.entries:
            lines.append("  " + entry.describe())
        for label in self.ungated:
            lines.append("  new      %s (not in baseline; re-baseline to gate it)" % label)
        lines.append(
            "  %d metrics compared, %d regressed, %d improved"
            % (len(self.entries), len(self.regressions), len(self.improvements))
        )
        return "\n".join(lines)


def tolerance_for(metric: str, tolerances: Dict[str, float]) -> float:
    short = metric.rsplit("/", 1)[-1]
    if metric in tolerances:
        return tolerances[metric]
    if short in tolerances:
        return tolerances[short]
    return tolerances.get("default", DEFAULT_TOLERANCES["default"])


def capture_baseline(
    spec: SweepSpec,
    results: Dict[str, Dict[str, Any]],
    tolerances: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """A baseline dict from a sweep's results (label -> record)."""
    missing = [p.label for p in spec.points() if p.label not in results]
    if missing:
        raise ValueError(
            "cannot baseline %s: %d points have no stored result (%s)"
            % (spec.name, len(missing), ", ".join(missing[:3]) + ("..." if len(missing) > 3 else ""))
        )
    points = {
        label: headline(spec.task, record["metrics"])
        for label, record in sorted(results.items())
    }
    return {
        "version": 1,
        "spec": spec.name,
        "task": spec.task,
        "captured_code": code_version(),
        "tolerances": dict(tolerances or DEFAULT_TOLERANCES),
        "points": points,
    }


def write_baseline(baseline: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        baseline = json.load(fh)
    if "points" not in baseline:
        raise ValueError("%s is not a lab baseline (no 'points')" % path)
    return baseline


def check(
    spec: SweepSpec,
    results: Dict[str, Dict[str, Any]],
    baseline: Dict[str, Any],
) -> GateReport:
    """Compare current results against a baseline."""
    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(baseline.get("tolerances", {}))
    report = GateReport(spec_name=spec.name)
    for label, base_metrics in sorted(baseline["points"].items()):
        record = results.get(label)
        for metric, base_value in sorted(base_metrics.items()):
            tol = tolerance_for(metric, tolerances)
            if record is None or metric not in record.get("metrics", {}):
                report.entries.append(
                    GateEntry(label, metric, base_value, None, 0.0, tol, "missing")
                )
                continue
            current = record["metrics"][metric]
            direction = metric_direction(metric)
            delta = current - base_value
            if direction > 0:
                worse = -delta
            elif direction < 0:
                worse = delta
            else:
                worse = abs(delta)
            worse_rel = worse / max(abs(base_value), 1e-12)
            if worse_rel > tol:
                status = "regression"
            elif direction != 0 and worse_rel < -tol:
                status = "improvement"
            else:
                status = "ok"
            report.entries.append(
                GateEntry(label, metric, base_value, current, worse_rel, tol, status)
            )
    gated = set(baseline["points"])
    report.ungated = sorted(label for label in results if label not in gated)
    return report


def bench_json(report: GateReport, baseline: Dict[str, Any]) -> Dict[str, Any]:
    """The snapshot payload of one gate run."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for entry in report.entries:
        cell = metrics.setdefault(entry.label, {})
        cell[entry.metric] = {
            "value": entry.current,
            "baseline": entry.baseline,
            "worse_pct": round(100.0 * entry.worse_by, 3),
            "status": entry.status,
        }
    return {
        "version": 1,
        "spec": report.spec_name,
        "pass": report.passed,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "code": code_version(),
        "baseline_code": baseline.get("captured_code"),
        "n_compared": len(report.entries),
        "n_regressed": len(report.regressions),
        "n_improved": len(report.improvements),
        "metrics": metrics,
    }


def read_bench_json(path: str) -> Dict[str, Any]:
    """The multi-spec snapshot file (v2) at ``path``.

    Missing, unparsable or other-shaped files read as an empty envelope.
    """
    try:
        with open(path) as fh:
            existing = json.load(fh)
    except (OSError, ValueError):
        existing = None
    if (
        isinstance(existing, dict)
        and existing.get("version") == 2
        and isinstance(existing.get("specs"), dict)
    ):
        return existing
    return {"version": 2, "pass": True, "specs": {}}


def write_bench_json(report: GateReport, baseline: Dict[str, Any], path: str) -> None:
    """Merge this gate run into the multi-spec snapshot file at ``path``.

    Each spec keeps its latest payload under ``specs[name]``; the
    top-level ``pass`` is the conjunction over every recorded spec, so
    one file answers "is the repo's perf trajectory clean" even when
    different sweeps are gated by different make targets.
    """
    payload = bench_json(report, baseline)
    merged = read_bench_json(path)
    merged["specs"][report.spec_name] = payload
    merged["pass"] = all(
        bool(spec.get("pass", False)) for spec in merged["specs"].values()
    )
    merged["generated_at"] = payload["generated_at"]
    merged["code"] = payload["code"]
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
        fh.write("\n")
