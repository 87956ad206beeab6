"""What each entry point imports, counted in fresh interpreters.

Cold start is one of the benchmark's end-to-end metrics (``setup_s``),
and most of it is ``import``.  Every entry point loads its own layer
stack and nothing above it: the package surfaces (``repro``,
``repro.bench``, ``repro.faults``) resolve their names on first access,
``repro.sim`` computes its statistics without numpy, and no workload of
``benchmarks/perf`` imports anything inside its timed ``run`` phase.
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


def test_kv_and_workloads_load_no_simulator():
    modules, numpy = modules_after("import repro.kv, repro.workloads")
    assert layers(modules) == {"kv", "workloads"}
    assert numpy  # their hot loops compute with it


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

