"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per (workload, repetition) so that every
repetition pays interpreter start, ``import repro`` and cluster set-up
from cold, and so that ``ru_maxrss`` is the workload's own.  The last
line of standard output is one JSON object (see :func:`main`).

Modes:

* ``setup``  — set up unit 0 (import, inputs, build, preload), report
  ``setup_s``, exit;
* ``timed``  — cycle through the workload's units with tracing off until
  ``--seconds`` of ``run`` phase have elapsed (each unit at least once);
  end-to-end metrics come from here;
* ``traced`` — run each unit once untraced, then again with ``cProfile``
  on inside the ``run`` spans; per-layer metrics come from here, and the
  two passes must agree on the simulation fingerprint.

Host noise on a shared box only ever slows a run down, and it comes in
phases of several seconds, so a timed repetition repeats the *same* few
units and keeps each unit's fastest run: ``sim_ops_per_host_s`` is the
units' operations over the sum of those fastest times.  Every repeat of a
unit must also reproduce its results exactly, or the repetition fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import sys
import time
from typing import Dict, List, Optional

_T_ENTER = time.time()

import perf_metrics  # noqa: E402
import perf_trace  # noqa: E402

#: units the traced pass profiles (cProfile triples their cost); also the
#: units whose results make up ``sim_fingerprint`` in every mode
TRACED_UNITS = 2
#: a repetition is disturbed when the reference loop slowed by more than
#: this between its start and end, or it got less than MIN_CPU_WALL of a core
MAX_REF_DRIFT = 0.10
MIN_CPU_WALL = 0.90


def ref_loop() -> float:
    """Seconds for a fixed pure-Python loop (best of three): a probe of
    how fast this machine is running Python right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i ^ (acc >> 3)
        best = min(best, time.perf_counter() - start)
    return best


class UnitRun:
    """One unit's result plus the host time its ``run`` phase took."""

    def __init__(self, unit, wall_s: float, cpu_s: float, gen2: int) -> None:
        self.unit = unit
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.gen2 = gen2


def fingerprint(runs: List[UnitRun]) -> str:
    blob = json.dumps([r.unit.detail for r in runs], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class Repetition:
    def __init__(self, workload, seed: int, quick: bool, rec: perf_trace.SpanRecorder) -> None:
        from repro.faults.rng import derive_seed

        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.rec = rec
        self._derive_seed = derive_seed
        self._prepared = None

    def prepare_first(self) -> None:
        """Set up unit 0 ahead of its run, so set-up can be timed alone.

        The repetition owns the result and hands it over on the first
        ``run_unit(0)``: a second reference kept by the caller would keep
        unit 0's cluster alive through unit 1 and inflate peak RSS."""
        self._prepared = self.setup(0)

    def setup(self, index: int):
        """Generate unit ``index``'s inputs, build and preload: (state, inputs)."""
        rec = self.rec
        rec.unit = index
        unit_seed = self._derive_seed(self.seed, "%s.%d" % (self.workload.name, index))
        with rec.span("generate_inputs"):
            inputs = self.workload.generate(unit_seed, self.quick)
        with rec.span("build"):
            state = self.workload.build(inputs)
        with rec.span("preload"):
            self.workload.preload(state, inputs)
        return state, inputs

    def run_unit(self, index: int, profiler: Optional[cProfile.Profile] = None) -> UnitRun:
        if self._prepared is not None and index == 0:
            state, inputs = self._prepared
            self._prepared = None
        else:
            state, inputs = self.setup(index)
        rec = self.rec
        gen2_before = gc.get_stats()[2]["collections"]
        cpu_before = time.process_time()
        with rec.span("run") as run_span:
            if profiler is not None:
                profiler.enable()
            try:
                raw = self.workload.run(state, inputs, lambda label: rec.span("cell", label))
            finally:
                if profiler is not None:
                    profiler.disable()
        cpu_s = time.process_time() - cpu_before
        gen2 = gc.get_stats()[2]["collections"] - gen2_before
        with rec.span("check"):
            unit = self.workload.check(state, inputs, raw)
        del state, inputs, raw
        gc.collect()  # outside the timed phase: the next unit starts clean
        return UnitRun(unit, run_span.duration, cpu_s, gen2)


def aggregate_layer(runs: List[UnitRun]) -> Dict[str, float]:
    """Combine the units' simulated-domain values per the catalogue."""
    out: Dict[str, float] = {}
    names = sorted({name for r in runs for name in r.unit.layer})
    for name in names:
        values = [r.unit.layer[name] for r in runs if name in r.unit.layer]
        if perf_metrics.BY_NAME[name].agg == "sum":
            out[name] = float(sum(values))
        else:
            out[name] = float(sum(values)) / len(values)
    return out


def per_layer_metrics(plain: List[UnitRun], traced: List[UnitRun],
                      profiler: cProfile.Profile) -> Dict[str, float]:
    out = aggregate_layer(plain)
    profile = perf_trace.bucket_profile(
        pstats.Stats(profiler).stats, perf_trace.txn_checker_lines()
    )
    # a zero count or self time means the layer is not on this workload's
    # path; leave it out so the tables show "-" and not a measured 0
    out.update({name: value for name, value in profile.items() if value})
    wall = sum(r.wall_s for r in plain)
    cpu = sum(r.cpu_s for r in plain)
    ops = sum(r.unit.ops for r in plain)
    attempted = sum(r.unit.attempted for r in plain)
    events = out.get("sim.events_scheduled")
    out["driver.run_wall_s"] = wall
    out["driver.run_cpu_s"] = cpu
    out["driver.cpu_wall_ratio"] = cpu / wall
    out["driver.trace_overhead_ratio"] = sum(r.wall_s for r in traced) / wall
    out["driver.gc_gen2_collections"] = sum(r.gen2 for r in plain)
    out["driver.failed_ops_share"] = sum(r.unit.failed for r in plain) / attempted
    if out.get("driver.sim_ms"):
        out["driver.host_s_per_sim_ms"] = wall / out["driver.sim_ms"]
    if events:
        out["sim.events_per_sim_op"] = events / ops
        out["sim.events_per_host_s"] = events / wall
        out["sim.host_ns_per_event"] = 1e9 * wall / events
    if "verbs.post_sends" in out:
        out["verbs.post_sends_per_sim_op"] = out["verbs.post_sends"] / ops
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--t0", type=float, default=_T_ENTER,
                        help="time.time() just before the parent started this process")
    parser.add_argument("--trace-out", help="where a traced repetition writes its Chrome trace")
    args = parser.parse_args(argv)

    rec = perf_trace.SpanRecorder(args.workload)
    with rec.span("import") as import_span:
        sys.path.insert(0, os.path.dirname(perf_trace.REPRO_DIR))
        import perf_workloads

        workload = perf_workloads.WORKLOADS[args.workload]()
    rep = Repetition(workload, args.seed, args.quick, rec)
    rep.prepare_first()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "quick": args.quick,
        # child-process start -> ready for the first timed call
        "setup_s": time.time() - args.t0,
        "import_s": import_span.duration,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ref_before = ref_loop()
    n_units = 1 if args.quick else workload.units
    if args.mode == "traced":
        n_units = min(n_units, TRACED_UNITS)
    runs: List[List[UnitRun]] = [[] for _ in range(n_units)]
    elapsed = 0.0
    turn = 0
    while turn < n_units or (args.mode == "timed" and elapsed < args.seconds):
        run = rep.run_unit(turn % n_units)
        runs[turn % n_units].append(run)
        elapsed += run.wall_s
        turn += 1
    first = [unit_runs[0] for unit_runs in runs]
    head = first[:TRACED_UNITS]
    fastest = [min(unit_runs, key=lambda r: r.wall_s) for unit_runs in runs]
    problems = ["unit %d: %s" % (i, p) for i, r in enumerate(first) for p in r.unit.problems]
    for i, unit_runs in enumerate(runs):
        if any(r.unit.detail != unit_runs[0].unit.detail for r in unit_runs[1:]):
            problems.append("unit %d: a repeat gave different simulated results" % i)
    result["sim_fingerprint"] = fingerprint(head)
    if args.mode == "traced":
        profiler = cProfile.Profile()
        traced = [rep.run_unit(i, profiler) for i in range(len(head))]
        stable = fingerprint(traced) == result["sim_fingerprint"]
        if not stable:
            problems.append("tracing changed the simulation fingerprint")
    ref_after = ref_loop()
    every = [r for unit_runs in runs for r in unit_runs]
    cpu_wall = sum(r.cpu_s for r in every) / sum(r.wall_s for r in every)
    drift = abs(ref_after - ref_before) / ref_before
    if args.mode == "traced":
        result["per_layer"] = per_layer_metrics(head, traced, profiler)
        result["per_layer"].update({
            "driver.fingerprint_stable": float(stable),
            "driver.import_s": import_span.duration,
            "driver.ref_loop_s": ref_before,
            "driver.ref_loop_drift": drift,
        })
        if args.trace_out:
            rec.write(args.trace_out)
    result.update({
        "attempted": sum(r.unit.attempted for r in every),
        "failed": sum(r.unit.failed for r in every),
        "problems": problems,
        "ref_loop_s": ref_before,
        "ref_loop_drift": drift,
        "cpu_wall_ratio": cpu_wall,
        "disturbed": drift > MAX_REF_DRIFT or cpu_wall < MIN_CPU_WALL,
        "end_to_end": {
            "sim_ops_per_host_s": (
                sum(r.unit.ops for r in fastest) / sum(r.wall_s for r in fastest)
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
