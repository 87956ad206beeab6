"""End to end: ``--quick`` runs all six workloads and their checks."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import perf_metrics
import run

RUN_PY = os.path.join(run.HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_py(*args, cwd=run.REPO):
    return subprocess.run([sys.executable, RUN_PY, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    start = time.monotonic()
    proc = run_py("--quick", "--seed", "5", "--out", str(out))
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as fh:
        return json.load(fh), proc.stdout, elapsed


def test_quick_covers_every_workload_within_30_s(quick):
    doc, _stdout, elapsed = quick
    assert elapsed < 30
    assert sorted(doc["workloads"]) == sorted(run.WORKLOADS)
    for name, res in doc["workloads"].items():
        assert res["problems"] == [], name
        assert res["failed"] == 0 and res["attempted"] > 0, name
        assert re.fullmatch(r"[0-9a-f]{64}", res["sim_fingerprint"]), name
        assert res["per_layer"]["driver.fingerprint_stable"]["value"] == 1.0, name


def test_every_metric_is_emitted_with_unit_and_legal_name(quick):
    doc, stdout, _elapsed = quick
    units = {m.name: m.unit for m in perf_metrics.END_TO_END + perf_metrics.PER_LAYER}
    seen = set()
    for name, res in doc["workloads"].items():
        # end-to-end: all of them, on every workload, never zero
        assert set(res["end_to_end"]) == {m.name for m in perf_metrics.END_TO_END}
        for metric, stat in res["end_to_end"].items():
            assert stat["unit"] == units[metric] and stat["median"] > 0, (name, metric)
        for metric, cell in res["per_layer"].items():
            assert NAME.match(metric) and cell["unit"] == units[metric], (name, metric)
            seen.add(metric)
    # per-layer: each is emitted by at least one workload
    assert seen == {m.name for m in perf_metrics.PER_LAYER}
    for metric in units:
        assert metric in stdout


def test_layers_separate_as_predicted(quick):
    doc, _stdout, _elapsed = quick
    layer = {name: res["per_layer"] for name, res in doc["workloads"].items()}

    def share(workload, name):
        return layer[workload].get(name + ".self_share", {"value": 0.0})["value"]

    for name, cells in layer.items():
        total = sum(c["value"] for m, c in cells.items() if m.endswith("self_share"))
        assert total == pytest.approx(1.0, abs=0.01), name
    grid = sum(share("verbs_grid", x) for x in ("sim", "hw", "verbs"))
    assert grid >= 0.7
    assert sum(share("kv_offline", x) for x in ("sim", "hw", "verbs")) == 0
    assert share("verbs_grid", "herd") == 0 and share("txn_contended", "herd") == 0
    assert share("kv_offline", "kv") > 0.5
    assert "ha.self_share" in layer["ha_kill_primary"]
    assert "txn.checker_self_s" in layer["txn_contended"]
    assert "ha.checker_self_s" not in layer["txn_contended"]


def test_traced_repetition_writes_a_chrome_trace(quick):
    doc, _stdout, _elapsed = quick
    for name, res in doc["workloads"].items():
        with open(res["trace_file"]) as fh:
            events = json.load(fh)["traceEvents"]
        names = {e["name"].split(":")[0] for e in events}
        assert {"import", "generate_inputs", "build", "preload", "run", "check"} <= names
        by_id = {e["args"]["id"]: e for e in events}
        for event in events:
            if event["name"].startswith("cell:"):
                assert by_id[event["args"]["parent"]]["name"] == "run", name


@pytest.mark.parametrize("trace,section", [("0", perf_metrics.END_TO_END),
                                            ("1", perf_metrics.PER_LAYER)])
def test_contract_line(trace, section):
    proc = run_py("--workload", "kv_offline", "--seed", "9", "--seconds", "0.2",
                  "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in section}
    for metric in section:
        cell = line["metrics"][metric.name]
        assert sorted(cell) == ["unit", "value"] and cell["unit"] == metric.unit
        assert isinstance(cell["value"], float)
    if trace == "0":
        assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_same_seed_same_fingerprint_other_seed_other_inputs():
    import perf_child  # noqa: F401  (import check: the child is importable)

    def fingerprint(seed):
        result = run.spawn_child("txn_contended", seed, 0.0, "timed", quick=True)
        assert result["problems"] == []
        return result["sim_fingerprint"]

    assert fingerprint(1) == fingerprint(1)
    assert fingerprint(1) != fingerprint(2)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "kv_offline",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
