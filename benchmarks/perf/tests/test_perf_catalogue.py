"""BENCHMARK.json, the Python catalogue and the contract's limits agree."""

import json
import os
import re

import perf_metrics
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_contract():
    with open(os.path.join(run.REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_contract_keys_and_limits():
    doc = load_contract()
    assert sorted(doc) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert doc["paths"] == ["benchmarks/perf"]
    assert doc["command"] == ["python3", "benchmarks/perf/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    # every run of the external driver must fit its cap with room to spare
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 10) < 3420


def test_names_units_and_uniqueness():
    doc = load_contract()
    names = [w["name"] for w in doc["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in doc[section]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    for workload in doc["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_contract_matches_catalogue():
    doc = load_contract()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in perf_metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in perf_metrics.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    # set-up time has the largest bound, as the contract asks
    assert bounds["setup_s"] == max(bounds.values())


def test_workload_reasons_come_from_the_workload_classes():
    import sys

    sys.path.insert(0, os.path.join(run.REPO, "src"))
    import perf_workloads

    doc = load_contract()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: cls.why for name, cls in perf_workloads.WORKLOADS.items()
    }
