"""The host-time benchmark of the HERD simulator (see README.md here).

Three ways to call it, all from the repository root:

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One repetition of one workload; the last line of standard output is
    one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
    every end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``) named in ``BENCHMARK.json``.

``python3 benchmarks/perf/run.py [--seed N] [--quick] [--out FILE]``
    Every workload: three timed repetitions with tracing off (median, min,
    max, n) plus one traced repetition, each in a fresh subprocess, one at
    a time.  Prints every metric by name with its unit, checks outputs,
    and exits non-zero when a check fails.

``python3 benchmarks/perf/run.py --compare A.json B.json``
    Applies the bounds to two ``--out`` files of the full mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import perf_metrics  # noqa: E402
from perf_trace import REPRO_DIR  # noqa: E402

REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
OUT_DIR = os.path.join(REPO, "benchmarks", "out", "perf")
#: in the order the tables print them
WORKLOADS = (
    "herd_small_get", "herd_large_put", "verbs_grid",
    "ha_kill_primary", "txn_contended", "kv_offline",
)
#: set-up samples behind one repetition's ``setup_s`` median
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """A repetition could not be measured at all."""


def spawn_child(workload: str, seed: int, seconds: float, mode: str, quick: bool,
                trace_out: Optional[str] = None) -> dict:
    """Run one ``perf_child.py`` to completion and return its result."""
    cmd = [
        sys.executable, os.path.join(HERE, "perf_child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--t0", repr(time.time()),
    ]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        # run() kills the child and waits for it when the timeout expires
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("%s (%s) exceeded %d s" % (workload, mode, CHILD_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError("%s (%s) exited with code %d" % (workload, mode, proc.returncode))
    return json.loads(lines[-1])


def repetition(workload: str, seed: int, seconds: float, traced: bool, quick: bool) -> dict:
    """One repetition: the measuring child plus extra set-up-only children.

    Set-up is cheap and noisy, so a timed repetition's ``setup_s`` is the
    median over SETUP_SAMPLES cold starts; the set-up-only children go
    first, which also leaves the bytecode cache warm for the measuring
    child.  A traced or ``--quick`` repetition starts just the one child.
    """
    extra = 0 if traced or quick else SETUP_SAMPLES - 1
    setups = [
        spawn_child(workload, seed, seconds, "setup", quick)["setup_s"]
        for _ in range(extra)
    ]
    trace_out = None
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(OUT_DIR, "%s-seed%d.trace.json" % (workload, seed))
    result = spawn_child(workload, seed, seconds, "traced" if traced else "timed",
                         quick, trace_out)
    setups.append(result["setup_s"])
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["trace_file"] = trace_out
    return result


def catalogue_units(section: List[perf_metrics.Metric]) -> Dict[str, str]:
    return {m.name: m.unit for m in section}


def contract_line(result: dict, traced: bool) -> str:
    """The one JSON object the external driver reads.

    It wants every metric of the section on every workload, so a
    per-layer metric that does not apply (``herd.sim_mops`` on
    ``kv_offline``) reads 0 here; the full mode prints "-" instead.
    """
    if traced:
        units = catalogue_units(perf_metrics.PER_LAYER)
        values = result["per_layer"]
    else:
        units = catalogue_units(perf_metrics.END_TO_END)
        values = result["end_to_end"]
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def report_problems(result: dict) -> None:
    for problem in result["problems"]:
        print("CHECK FAILED %s: %s" % (result["workload"], problem), file=sys.stderr)
    if result["disturbed"]:
        print(
            "disturbed %s: reference loop drift %.1f%%, cpu/wall %.2f"
            % (result["workload"], 100 * result["ref_loop_drift"], result["cpu_wall_ratio"]),
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# full mode
# ---------------------------------------------------------------------------


def steady_repetition(workload: str, seed: int, seconds: float, traced: bool,
                      quick: bool) -> dict:
    """A repetition, run again once if the machine disturbed it."""
    result = repetition(workload, seed, seconds, traced, quick)
    result["rerun"] = False
    if result["disturbed"]:
        report_problems(result)
        result = repetition(workload, seed, seconds, traced, quick)
        result["rerun"] = True
    return result


def run_workload(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """Three timed repetitions and a traced one (one and one with --quick)."""
    timed = [
        steady_repetition(workload, seed, seconds, False, quick)
        for _ in range(1 if quick else 3)
    ]
    traced = steady_repetition(workload, seed, seconds, True, quick)
    reps = timed + [traced]
    problems = [p for rep in reps for p in rep["problems"]]
    fingerprints = {rep["sim_fingerprint"] for rep in reps}
    if len(fingerprints) != 1:
        problems.append("sim_fingerprint differs between repetitions: %s"
                        % sorted(fingerprints))
    traced["per_layer"]["driver.fingerprint_stable"] = float(
        len(fingerprints) == 1 and traced["per_layer"]["driver.fingerprint_stable"]
    )
    end_to_end = {}
    for metric in perf_metrics.END_TO_END:
        values = [rep["end_to_end"][metric.name] for rep in timed]
        end_to_end[metric.name] = {
            "unit": metric.unit,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
        }
    units = catalogue_units(perf_metrics.PER_LAYER)
    return {
        "end_to_end": end_to_end,
        "per_layer": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(traced["per_layer"].items())
        },
        "sim_fingerprint": sorted(fingerprints)[0],
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "problems": problems,
        "disturbed": sum(rep["disturbed"] for rep in reps),
        "reruns": sum(rep["rerun"] for rep in reps),
        "trace_file": traced["trace_file"],
    }


def print_report(results: Dict[str, dict]) -> None:
    for name, res in results.items():
        print("== %s  (fingerprint %s)" % (name, res["sim_fingerprint"][:16]))
        for metric, stat in res["end_to_end"].items():
            print("  %-28s %14.4f %-6s (min %.4f, max %.4f, n=%d)" % (
                metric, stat["median"], stat["unit"], stat["min"], stat["max"], stat["n"]))
        print("  %-28s %14d of %d attempted" % ("failed ops", res["failed"], res["attempted"]))
        if res["reruns"]:
            print("  %d repetition(s) run again after a disturbance, %d still disturbed"
                  % (res["reruns"], res["disturbed"]))
        for metric, cell in res["per_layer"].items():
            print("  %-28s %14.4f %s" % (metric, cell["value"], cell["unit"]))
    layers = perf_metrics.PROFILED_LAYERS + tuple("other.%s" % b for b in perf_metrics.OTHER_BUCKETS)
    print("== self_share by layer (traced repetition)")
    print("  %-16s" % "workload" + "".join("%10s" % layer.split(".")[-1] for layer in layers))
    for name, res in results.items():
        row = "  %-16s" % name
        for layer in layers:
            key = layer + ("_self_share" if layer.startswith("other.") else ".self_share")
            cell = res["per_layer"].get(key)
            row += "%10s" % ("-" if cell is None else "%.3f" % cell["value"])
        print(row)


def full_mode(args: argparse.Namespace) -> int:
    seconds = 0.0 if args.quick else args.seconds
    results = {name: run_workload(name, args.seed, seconds, args.quick)
               for name in WORKLOADS}
    print_report(results)
    document = {"seed": args.seed, "quick": args.quick, "seconds": seconds,
                "workloads": results}
    os.makedirs(OUT_DIR, exist_ok=True)
    out = args.out or os.path.join(OUT_DIR, "results-seed%d.json" % args.seed)
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    print("results written to %s" % out)
    failures = [(name, p) for name, res in results.items() for p in res["problems"]]
    for name, problem in failures:
        print("CHECK FAILED %s: %s" % (name, problem))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(base: dict, new: dict) -> List[tuple]:
    """Rows ``(workload, metric, status, detail)`` for two result files.

    End-to-end metrics: ``regressed`` when the new median is worse than
    the base median by more than the metric's bound; ``unresolved`` when
    either side's own min-max spread exceeds the bound (the runs cannot
    tell); else ``ok``.  Fingerprints, counts and simulated-domain values
    must be equal: ``ok`` or ``mismatch``.
    """
    rows = []
    for workload, base_res in base["workloads"].items():
        new_res = new["workloads"].get(workload)
        if new_res is None:
            rows.append((workload, "*", "mismatch", "missing from the second file"))
            continue
        for metric in perf_metrics.END_TO_END:
            a, b = base_res["end_to_end"][metric.name], new_res["end_to_end"][metric.name]
            worse = (b["median"] - a["median"]) / a["median"]
            if metric.better == "higher":
                worse = -worse
            spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
            if spread > metric.bound:
                status = "unresolved"
            elif worse > metric.bound:
                status = "regressed"
            else:
                status = "ok"
            rows.append((workload, metric.name, status,
                         "%.4f -> %.4f %s (%+.1f%% worse, bound %.0f%%, spread %.1f%%)" % (
                             a["median"], b["median"], metric.unit, 100 * worse,
                             100 * metric.bound, 100 * spread)))
        same = base_res["sim_fingerprint"] == new_res["sim_fingerprint"]
        rows.append((workload, "sim_fingerprint", "ok" if same else "mismatch",
                     "%s vs %s" % (base_res["sim_fingerprint"][:16], new_res["sim_fingerprint"][:16])))
        for metric in perf_metrics.PER_LAYER:
            if metric.kind == "host":
                continue
            a = base_res["per_layer"].get(metric.name, {}).get("value")
            b = new_res["per_layer"].get(metric.name, {}).get("value")
            if a is None and b is None:
                continue
            rows.append((workload, metric.name, "ok" if a == b else "mismatch",
                         "%r vs %r" % (a, b)))
    return rows


def compare_mode(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        base = json.load(fh)
    with open(path_b) as fh:
        new = json.load(fh)
    rows = compare(base, new)
    for workload, metric, status, detail in rows:
        print("%-10s %-16s %-28s %s" % (status, workload, metric, detail))
    bad = sum(1 for row in rows if row[2] in ("regressed", "mismatch"))
    unresolved = sum(1 for row in rows if row[2] == "unresolved")
    print("%d rows: %d regressed or mismatched, %d unresolved" % (len(rows), bad, unresolved))
    return 1 if bad else 0


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one repetition of this workload and print the contract line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="seconds of run phase per timed repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="cut every workload to well under 2 s (for the tests)")
    parser.add_argument("--out", help="full mode: where to write the results JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare_mode(*args.compare)
    if not os.path.isdir(REPRO_DIR):
        print("no program to measure: %s is missing" % REPRO_DIR, file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return full_mode(args)
        traced = bool(args.trace)
        result = repetition(args.workload, args.seed, args.seconds, traced, args.quick)
    except BenchmarkError as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1
    report_problems(result)
    print(contract_line(result, traced))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
