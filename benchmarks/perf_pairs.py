"""Interleaved parent/change pairs of the host-time benchmark.

``make perf-pairs BASE=<git-ref> WORKLOAD=<name>|all [PAIRS=10]`` — the
"before/after row taken interleaved on one machine" every performance
change owes docs/PERF.md.  ``BASE`` is checked out into a temporary
``git worktree``; each pair then runs the *unmodified*
``benchmarks/perf/run.py --workload W --seed S --seconds 12 --trace 0``
once from that tree and once from this one, alternating which side goes
first, with a fresh seed per pair (the same seed on both sides).  The
worktree is removed at the end.  ``BASE`` may also name a directory that
already holds the base tree (a ``git archive`` extract), which is then
used as it is and left alone.  ``WORKLOAD=all`` runs every workload of
``BENCHMARK.json`` back to back, in its order.

The report follows the choosing-metrics rule for a small sandbox.  Per
workload: each side's median and quartiles per end-to-end metric, and
how many pairs the change wins (ties count for neither side).  At the
end, one verdict table, a row per end-to-end metric and workload:

* ``unresolved`` — either side's interquartile distance exceeds the
  metric's bound (a share of that side's median): the runs spread too
  widely to tell, which is not the same as unchanged;
* ``regressed`` — the change's median is worse than the base's by more
  than the bound, or a larger share of the change's operations failed;
* ``within bound`` otherwise, with ``gain`` where the change wins at
  least nine tenths of the pairs and the medians differ by more than the
  base side's own interquartile distance — the only rows a gain may be
  claimed on.

``run.py`` prints ``disturbed <workload>: ...`` on stderr when the
machine stole time from a repetition (its reference loop drifted).  A
pair with a disturbed side is run again once, both sides, and the second
reading is the one kept — what ``run.py`` does for its own repetitions —
and the counts are printed per side under the verdict table, so an
``unresolved`` row can be told from a slow spell of the host.

The exit status is 1 when any row regressed, else 0.
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

#: one pair: side ("base" / "change") -> run.py's parsed contract line
#: plus "disturbed" (whether run.py said so); "disturbed_first" -> the
#: sides disturbed on the first attempt, when the pair was run again
Pair = Dict[str, dict]
SIDES = ("base", "change")


def benchmark_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One driver-mode repetition from ``tree``; its contract line, parsed."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s: run.py exited with code %d" % (tree, proc.returncode))
    result = json.loads(lines[-1])
    result["disturbed"] = any(
        line.startswith("disturbed ") for line in proc.stderr.splitlines()
    )
    return result


def run_pair(base_tree: str, workload: str, seed: int, order: Tuple[str, str]) -> Pair:
    return {
        side: run_once(base_tree if side == "base" else REPO, workload, seed)
        for side in order
    }


def run_pairs(base_tree: str, workload: str, pairs: int, metrics: List[dict]) -> List[Pair]:
    rows: List[Pair] = []
    for pair in range(pairs):
        seed = pair + 1
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        row = run_pair(base_tree, workload, seed, order)
        first = [side for side in SIDES if row[side]["disturbed"]]
        if first:
            print("%s  pair %2d  %s disturbed: running the pair again"
                  % (workload, pair + 1, " and ".join(first)), flush=True)
            row = run_pair(base_tree, workload, seed, order)
            row["disturbed_first"] = first
        rows.append(row)
        print("%s  pair %2d  seed %2d  %s first  %s" % (
            workload, pair + 1, seed, order[0],
            "  ".join(
                "%s %.6g -> %.6g" % (
                    m["name"],
                    row["base"]["metrics"][m["name"]]["value"],
                    row["change"]["metrics"][m["name"]]["value"],
                )
                for m in metrics
            ),
        ), flush=True)
    return rows


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failed_share(rows: List[Pair], side: str) -> Tuple[int, int]:
    """``(failed, attempted)`` operations over one side's runs."""
    return (
        sum(row[side]["failed"] for row in rows),
        sum(row[side]["attempted"] for row in rows),
    )


def judge(rows: List[Pair], metric: dict) -> dict:
    """One (metric, workload) cell: both sides' quartiles and the verdict."""
    name, bound = metric["name"], metric["bound"]
    base = [row["base"]["metrics"][name]["value"] for row in rows]
    change = [row["change"]["metrics"][name]["value"] for row in rows]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
    improvement = sign * (cmed - bmed)
    if (bq3 - bq1) > bound * bmed or (cq3 - cq1) > bound * cmed:
        verdict = "unresolved"
    elif -improvement > bound * bmed:
        verdict = "regressed"
    elif wins >= 0.9 * len(rows) and improvement > bq3 - bq1:
        verdict = "within bound, gain"
    else:
        verdict = "within bound"
    return {
        "base": (bq1, bmed, bq3), "change": (cq1, cmed, cq3),
        "wins": wins, "losses": losses, "verdict": verdict,
    }


def report(workload: str, rows: List[Pair], metrics: List[dict]) -> None:
    for metric in metrics:
        cell = judge(rows, metric)
        (bq1, bmed, bq3), (cq1, cmed, cq3) = cell["base"], cell["change"]
        print("%s  %s  (%s is better)" % (workload, metric["name"], metric["better"]))
        print("  base    median %.6g  quartiles %.6g .. %.6g" % (bmed, bq1, bq3))
        print("  change  median %.6g  quartiles %.6g .. %.6g" % (cmed, cq1, cq3))
        print("  change/base median ratio %.4f; median difference %.6g vs base "
              "interquartile distance %.6g" % (cmed / bmed, cmed - bmed, bq3 - bq1))
        print("  change wins %d, loses %d of %d pairs"
              % (cell["wins"], cell["losses"], len(rows)))
    for side in SIDES:
        print("%s  %s failed operations: %d of %d"
              % ((workload, side) + failed_share(rows, side)))


def verdict_table(results: Dict[str, List[Pair]], metrics: List[dict]) -> bool:
    """Print the closing table; whether any row regressed."""
    regressed = False
    print("\nverdict (bounds from BENCHMARK.json; median (first .. third quartile))")
    for metric in metrics:
        print("\n%s  (%s, %s is better, bound %g %%)" % (
            metric["name"], metric["unit"], metric["better"], 100 * metric["bound"]))
        print("  %-16s %-32s %-32s %7s  %-9s  %s"
              % ("workload", "base", "change", "ratio", "won/lost", "verdict"))
        for workload, rows in results.items():
            cell = judge(rows, metric)
            (bq1, bmed, bq3), (cq1, cmed, cq3) = cell["base"], cell["change"]
            print("  %-16s %-32s %-32s %7.4f  %2d / %-4d  %s" % (
                workload,
                "%.6g (%.6g .. %.6g)" % (bmed, bq1, bq3),
                "%.6g (%.6g .. %.6g)" % (cmed, cq1, cq3),
                cmed / bmed, cell["wins"], cell["losses"], cell["verdict"],
            ))
            regressed |= cell["verdict"] == "regressed"
    print("\nfailed operations (a larger share on the change side is a regression)")
    for workload, rows in results.items():
        (bf, ba), (cf, ca) = failed_share(rows, "base"), failed_share(rows, "change")
        worse = cf * ba > bf * ca
        print("  %-16s base %d of %d, change %d of %d  %s"
              % (workload, bf, ba, cf, ca, "regressed" if worse else "ok"))
        regressed |= worse
    print("\ndisturbed runs (run.py's reference loop drifted; such a pair is run "
          "again once, both sides, and the second reading kept)")
    heads = ["%s: first attempt / kept reading" % side for side in SIDES]
    print("  %-16s %-16s %s" % ("workload", "pairs run again", "  ".join(heads)))
    for workload, rows in results.items():
        rerun = sum("disturbed_first" in row for row in rows)
        cells = [
            ("%d / %d" % (
                sum(side in row.get("disturbed_first", ()) for row in rows),
                sum(row[side]["disturbed"] for row in rows),
            )).ljust(len(head))
            for side, head in zip(SIDES, heads)
        ]
        print("  %-16s %-16s %s"
              % (workload, "%d of %d" % (rerun, len(rows)), "  ".join(cells)))
    return regressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref of the base commit, or a directory holding its tree")
    parser.add_argument("workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("pairs", nargs="?", type=int, default=10)
    args = parser.parse_args()

    contract = benchmark_contract()
    metrics = contract["end_to_end"]
    known = [w["name"] for w in contract["workloads"]]
    if args.workload != "all" and args.workload not in known:
        parser.error("unknown workload %r (one of: all, %s)"
                     % (args.workload, ", ".join(known)))
    workloads = known if args.workload == "all" else [args.workload]

    scratch = None
    if os.path.isdir(args.base):
        base_tree = os.path.abspath(args.base)
    else:
        scratch = tempfile.mkdtemp(prefix="perf-pairs-")
        base_tree = os.path.join(scratch, "base")
        subprocess.run(["git", "worktree", "add", "--detach", base_tree, args.base],
                       cwd=REPO, check=True, stdout=subprocess.DEVNULL)
    results: Dict[str, List[Pair]] = {}
    try:
        for workload in workloads:
            results[workload] = run_pairs(base_tree, workload, args.pairs, metrics)
            report(workload, results[workload], metrics)
    finally:
        if scratch is not None:
            subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=REPO)
            shutil.rmtree(scratch, ignore_errors=True)
    return 1 if verdict_table(results, metrics) else 0


if __name__ == "__main__":
    sys.exit(main())
