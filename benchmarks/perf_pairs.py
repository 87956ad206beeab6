"""Interleaved parent/change pairs of the host-time benchmark.

``make perf-pairs BASE=<git-ref> WORKLOAD=<name> [PAIRS=10]`` — the
"before/after row taken interleaved on one machine" every performance
change owes docs/PERF.md.  ``BASE`` is checked out into a temporary
``git worktree``; each pair then runs the *unmodified*
``benchmarks/perf/run.py --workload W --seed S --seconds 12 --trace 0``
once from that tree and once from this one, alternating which side goes
first, with a fresh seed per pair (the same seed on both sides).  The
worktree is removed at the end.  ``BASE`` may also name a directory that
already holds the base tree (a ``git archive`` extract), which is then
used as it is and left alone.

The report follows the choosing-metrics rule for a small sandbox: each
side's median and quartiles per end-to-end metric, and how many pairs
the change wins (ties count for neither side).  A gain is claimable at
>= 9 wins of 10 and a median difference larger than the base side's own
interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

REPO = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
RUN_PY = os.path.join("benchmarks", "perf", "run.py")
SECONDS = 12


def end_to_end_metrics() -> List[Tuple[str, str]]:
    """``(name, better)`` for each end-to-end metric of BENCHMARK.json."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One driver-mode repetition from ``tree``; its contract line, parsed."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s: run.py exited with code %d" % (tree, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(workload: str, rows: List[Dict[str, dict]], metrics: List[Tuple[str, str]]) -> None:
    for name, better in metrics:
        base = [row["base"]["metrics"][name]["value"] for row in rows]
        change = [row["change"]["metrics"][name]["value"] for row in rows]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
        print("%s  %s  (%s is better)" % (workload, name, better))
        print("  base    median %.6g  quartiles %.6g .. %.6g" % (bmed, bq1, bq3))
        print("  change  median %.6g  quartiles %.6g .. %.6g" % (cmed, cq1, cq3))
        print("  change/base median ratio %.4f; median difference %.6g vs base "
              "interquartile distance %.6g" % (cmed / bmed, cmed - bmed, bq3 - bq1))
        print("  change wins %d, loses %d of %d pairs" % (wins, losses, len(rows)))
    for side in ("base", "change"):
        attempted = sum(row[side]["attempted"] for row in rows)
        failed = sum(row[side]["failed"] for row in rows)
        print("%s  %s failed operations: %d of %d" % (workload, side, failed, attempted))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref of the base commit, or a directory holding its tree")
    parser.add_argument("workload")
    parser.add_argument("pairs", nargs="?", type=int, default=10)
    args = parser.parse_args()

    scratch = None
    if os.path.isdir(args.base):
        base_tree = os.path.abspath(args.base)
    else:
        scratch = tempfile.mkdtemp(prefix="perf-pairs-")
        base_tree = os.path.join(scratch, "base")
        subprocess.run(["git", "worktree", "add", "--detach", base_tree, args.base],
                       cwd=REPO, check=True, stdout=subprocess.DEVNULL)
    metrics = end_to_end_metrics()
    rows: List[Dict[str, dict]] = []
    try:
        for pair in range(args.pairs):
            seed = pair + 1
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            row = {}
            for side in order:
                tree = base_tree if side == "base" else REPO
                row[side] = run_once(tree, args.workload, seed)
            rows.append(row)
            print("pair %2d  seed %2d  %s first  %s" % (
                pair + 1, seed, order[0],
                "  ".join(
                    "%s %.6g -> %.6g" % (
                        name,
                        row["base"]["metrics"][name]["value"],
                        row["change"]["metrics"][name]["value"],
                    )
                    for name, _better in metrics
                ),
            ), flush=True)
    finally:
        if scratch is not None:
            subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=REPO)
            shutil.rmtree(scratch, ignore_errors=True)
    report(args.workload, rows, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
