"""``herd-lab``: run, cache, inspect, and gate experiment sweeps.

Examples::

    herd-lab list
    herd-lab run smoke --workers 4
    herd-lab run my_sweep.json --workers 8 --timeout 120
    herd-lab show smoke
    herd-lab baseline smoke --out benchmarks/baselines/lab-smoke.json
    herd-lab gate smoke --baseline benchmarks/baselines/lab-smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lab import gate as gate_mod
from repro.lab.runner import DEFAULT_TIMEOUT_S, run_sweep
from repro.lab.spec import BUILTIN_SPECS, resolve_spec
from repro.lab.store import DEFAULT_ROOT, ResultStore
from repro.lab.tasks import TASKS, headline


def _store(args) -> ResultStore:
    return ResultStore(args.store)


def cmd_list(args) -> int:
    print("built-in sweeps:")
    for name in sorted(BUILTIN_SPECS):
        spec = BUILTIN_SPECS[name]()
        print(
            "  %-14s %3d points  %s"
            % (name, len(spec.points()), spec.description)
        )
    print("tasks: " + "  ".join(sorted(TASKS)))
    from repro.faults.chaos import SCENARIOS

    print("chaos scenarios (for the chaos/ha/elastic tasks):")
    for name, scenario in SCENARIOS.items():
        if name:  # None: the classic run
            print("  %-18s %s" % (name, scenario.blurb))
    print("(or pass a .json spec file; see docs/LAB.md)")
    return 0


def cmd_run(args) -> int:
    spec = resolve_spec(args.spec)
    outcome = run_sweep(
        spec,
        store=_store(args),
        workers=args.workers,
        timeout_s=args.timeout,
        force=args.force,
        progress=not args.quiet,
        max_attempts=args.max_attempts,
    )
    print(
        "%s: %d points (%d cached, %d ran, %d failed) -> %s"
        % (
            spec.name,
            len(outcome.points),
            outcome.n_cached,
            outcome.n_ran,
            outcome.n_failed,
            _store(args).path(spec.name),
        )
    )
    for failure in outcome.failures:
        print("  FAILED %s" % failure, file=sys.stderr)
    return 0 if outcome.ok else 1


def cmd_show(args) -> int:
    spec = resolve_spec(args.spec)
    results = _store(args).latest_by_label(spec.name)
    if not results:
        print(
            "no results for %s in %s (run `herd-lab run %s` first)"
            % (spec.name, _store(args).path(spec.name), args.spec),
            file=sys.stderr,
        )
        return 1
    print("%s — %d stored points" % (spec.name, len(results)))
    for label in sorted(results):
        record = results[label]
        cells = ", ".join(
            "%s=%.4g" % (metric, value)
            for metric, value in sorted(headline(record["task"], record["metrics"]).items())
        )
        print("  %-52s %s" % (label, cells))
    return 0


def _gated_results(spec, store):
    """Stored results for every spec point, erroring on holes."""
    results = store.latest_by_label(spec.name)
    missing = [p.label for p in spec.points() if p.label not in results]
    return results, missing


def cmd_baseline(args) -> int:
    spec = resolve_spec(args.spec)
    results, missing = _gated_results(spec, _store(args))
    if missing:
        print(
            "cannot baseline %s: %d of %d points not in the store; "
            "run `herd-lab run %s` first"
            % (spec.name, len(missing), len(spec.points()), args.spec),
            file=sys.stderr,
        )
        return 1
    baseline = gate_mod.capture_baseline(spec, results)
    gate_mod.write_baseline(baseline, args.out)
    print(
        "baseline for %s: %d points -> %s"
        % (spec.name, len(baseline["points"]), args.out)
    )
    return 0


def cmd_gate(args) -> int:
    spec = resolve_spec(args.spec)
    try:
        baseline = gate_mod.load_baseline(args.baseline)
    except (OSError, ValueError) as error:
        print("cannot load baseline: %s" % error, file=sys.stderr)
        return 2
    results, _missing = _gated_results(spec, _store(args))
    report = gate_mod.check(spec, results, baseline)
    print(report.summary())
    if args.bench_json:
        gate_mod.write_bench_json(report, baseline, args.bench_json)
        print("wrote %s" % args.bench_json)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="herd-lab",
        description="Parallel experiment sweeps with a cached result "
        "store and a perf-regression gate, over the HERD reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=False)

    sub.add_parser("list", help="list built-in sweeps and tasks")

    def add_common(p):
        p.add_argument("spec", help="built-in sweep name or a .json spec file")
        p.add_argument(
            "--store", default=DEFAULT_ROOT, metavar="DIR",
            help="result store directory (default %s)" % DEFAULT_ROOT,
        )

    run_p = sub.add_parser("run", help="execute a sweep (cached points are skipped)")
    add_common(run_p)
    run_p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes (1 = serial, in-process)")
    run_p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                       metavar="S", help="per-point timeout in seconds")
    run_p.add_argument("--force", action="store_true",
                       help="recompute every point, ignoring the cache")
    run_p.add_argument("--max-attempts", type=int, default=3, metavar="K",
                       help="attempts per point when workers crash")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")

    show_p = sub.add_parser("show", help="print stored results for a sweep")
    add_common(show_p)

    base_p = sub.add_parser("baseline", help="capture a baseline from stored results")
    add_common(base_p)
    base_p.add_argument("--out", required=True, metavar="PATH",
                        help="where to write the baseline JSON")

    gate_p = sub.add_parser(
        "gate", help="compare stored results against a baseline; exit 1 on regression"
    )
    add_common(gate_p)
    gate_p.add_argument("--baseline", required=True, metavar="PATH",
                        help="committed baseline JSON to gate against")
    gate_p.add_argument("--bench-json", metavar="PATH",
                        help="fold this run's snapshot into the JSON file "
                        "at PATH (default: write nothing)")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return {
            "list": cmd_list,
            "run": cmd_run,
            "show": cmd_show,
            "baseline": cmd_baseline,
            "gate": cmd_gate,
        }[args.command](args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
