"""What each entry point imports, counted in fresh interpreters.

Cold start is one of the benchmark's end-to-end metrics (``setup_s``),
and most of it is ``import``.  Every entry point loads its own layer
stack and nothing above it: the package surfaces (``repro``,
``repro.bench``, ``repro.faults``) resolve their names on first access,
no module of ``repro`` needs numpy (it is a test-only oracle), and no
workload of ``benchmarks/perf`` imports anything inside its timed
``run`` phase.
These are module counts, not clocks, so they hold on any machine.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF_DIR = os.path.join(ROOT, "benchmarks", "perf")
WORKLOADS = (
    "herd_small_get", "herd_large_put", "verbs_grid",
    "ha_kill_primary", "txn_contended", "kv_offline",
)


def fresh_python(code: str):
    """Run ``code`` in a new interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, check=True, text=True, timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def modules_after(statement: str):
    """``sys.modules`` after ``statement``: the ``repro`` ones, and numpy."""
    names = fresh_python(
        "import json, sys\n%s\nprint(json.dumps(sorted(sys.modules)))" % statement
    )
    return {n for n in names if n == "repro" or n.startswith("repro.")}, "numpy" in names


def layers(modules):
    return {name.split(".")[1] for name in modules if "." in name}


def test_import_repro_loads_nothing_else():
    modules, numpy = modules_after("import repro")
    assert modules == {"repro"}
    assert not numpy


def test_the_rng_streams_load_no_fault_machinery_and_no_herd():
    modules, numpy = modules_after("import repro.faults.rng")
    assert modules == {"repro", "repro.faults", "repro.faults.rng"}
    assert not numpy


def test_the_microbenchmarks_load_only_their_layers_and_no_numpy():
    modules, numpy = modules_after("import repro.bench.microbench")
    assert layers(modules) <= {"sim", "hw", "verbs", "bench", "obs"}
    assert {"sim", "hw", "verbs", "bench"} <= layers(modules)
    assert not numpy


def test_the_chaos_harness_loads_txn_only_for_a_txn_entry():
    run = "from repro.faults.chaos import run_chaos\nrun_chaos(%s horizon_ns=20_000.0)"
    herd, _ = modules_after(run % "scenario='kill-primary',")
    assert "txn" not in layers(herd)
    txn, _ = modules_after(run % "scenario='txn-rpc',")
    assert "txn" in layers(txn)


def test_kv_and_workloads_load_no_simulator():
    modules, numpy = modules_after("import repro.kv, repro.workloads")
    assert layers(modules) == {"kv", "workloads"}
    assert not numpy


def test_every_exported_name_resolves():
    packages = ["repro"] + [
        "repro." + info.name
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    assert len(packages) > 10
    for name in packages:
        package = importlib.import_module(name)
        for export in package.__all__:
            assert getattr(package, export) is not None, (name, export)
            assert export in dir(package), (name, export)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018
    from repro import HerdCluster
    from repro.herd.cluster import HerdCluster as defined

    assert HerdCluster is defined


WITHOUT_NUMPY = """
import importlib, json, pkgutil, sys


class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError("numpy is not installed")
        return None


sys.meta_path.insert(0, NoNumpy())
import repro

names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)

from repro.faults.chaos import run_chaos
from repro.herd import HerdCluster, HerdConfig
from repro.kv import CuckooTable, HopscotchTable, MicaCache
from repro.workloads import Workload

skewed = Workload(get_fraction=0.5, value_size=32, n_keys=1024, distribution="zipfian")
cluster = HerdCluster(HerdConfig(n_server_processes=2, window=2), n_client_machines=2, seed=1)
cluster.add_clients(4, skewed)
cluster.preload(range(1024), 32)
result = cluster.run(warmup_ns=5_000.0, measure_ns=20_000.0)
herd_failed = sum(int(result.extra[k]) for k in ("get_misses", "retries", "abandoned"))

report = run_chaos(seed=11, scenario="kill-primary", horizon_ns=60_000.0)
chaos_failed = report.abandoned + report.ops_lost + len(report.violations)

next_op = skewed.stream(0).next_op
ops = [next_op() for _ in range(5_000)]
tables = [MicaCache(index_entries=1 << 14, log_bytes=1 << 20),
          CuckooTable(n_buckets=1 << 13, extent_bytes=1 << 20),
          HopscotchTable(n_slots=1 << 13, value_capacity=64)]
kv_failed = 0
for table in tables:
    oracle = {}
    for op in ops:
        if op.value is None:
            kv_failed += table.get(op.key) != oracle.get(op.key)
        else:
            table.put(op.key, op.value)
            oracle[op.key] = op.value
print(json.dumps({
    "modules": len(names),
    "numpy": "numpy" in sys.modules,
    "herd": [result.ops, herd_failed],
    "chaos": [report.completed, chaos_failed, report.checker],
    "kv": [len(ops) * len(tables), kv_failed],
}))
"""


def test_every_module_imports_and_runs_without_numpy():
    """With ``import numpy`` failing, every ``repro`` module imports,
    and a Zipf HERD cluster, a kill-primary chaos run and a
    ``kv_offline``-shaped trace over the three indexes complete with
    no failed operation."""
    out = fresh_python(WITHOUT_NUMPY)
    assert out["modules"] > 80
    assert not out["numpy"]
    ops, failed = out["herd"]
    assert ops > 0 and failed == 0
    completed, failed, checker = out["chaos"]
    assert completed > 0 and failed == 0 and checker == "linearizable"
    assert out["kv"] == [15_000, 0]


RUN_PHASE = """
import json, sys
sys.path.insert(0, %(perf)r)
import perf_trace, perf_workloads

workload = perf_workloads.WORKLOADS[%(name)r]()
spans = perf_trace.SpanRecorder(%(name)r)
inputs = workload.generate(0, True)
state = workload.build(inputs)
workload.preload(state, inputs)
before = set(sys.modules)
raw = workload.run(state, inputs, lambda label: spans.span("cell", label))
imported = sorted(set(sys.modules) - before)
problems = workload.check(state, inputs, raw).problems
print(json.dumps([imported, problems]))
"""


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_benchmark_run_imports_nothing(name):
    """Set-up pays for every import: ``sys.modules`` after the timed
    ``run`` phase equals ``sys.modules`` after ``preload``."""
    imported, problems = fresh_python(RUN_PHASE % {"perf": PERF_DIR, "name": name})
    assert imported == []
    assert problems == []

