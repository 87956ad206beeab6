"""``herd-bench``: regenerate any of the paper's tables and figures.

Examples::

    herd-bench --list
    herd-bench fig10
    herd-bench fig5 fig6 --scale full
    herd-bench all --scale bench
    herd-bench fig9 --metrics m.json --trace t.trace.json
    herd-bench --chaos --chaos-seed 7 --chaos-runs 3 --metrics m.json
    herd-bench --nemesis 24 --nemesis-dir repros/
    herd-bench --nemesis-replay repros/nemesis-ha-seed42.json
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import List

from repro.bench.figures import FIGURES, TABLES
from repro.bench.report import format_figure


def resolve_experiments(requested: List[str]) -> List[str]:
    """Validate the requested ids up front and expand ``all`` anywhere.

    Raises ``ValueError`` naming every unknown id, so a typo cannot
    burn minutes of sweep time before failing (``herd-bench fig5
    fig99`` used to run fig5 and *then* exit 2), and ``all`` works in
    any position, not just as the sole argument.
    """
    known = set(TABLES) | set(FIGURES)
    unknown = sorted(set(exp for exp in requested if exp != "all") - known)
    if unknown:
        raise ValueError(
            "unknown experiment%s %s (try --list)"
            % ("s" if len(unknown) > 1 else "", ", ".join(map(repr, unknown)))
        )
    resolved: List[str] = []
    for exp in requested:
        expansion = sorted(TABLES) + sorted(FIGURES) if exp == "all" else [exp]
        for item in expansion:
            if item not in resolved:
                resolved.append(item)
    return resolved


def _describe(fn) -> str:
    """The first docstring line, as the experiment's one-line summary."""
    doc = (fn.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def _list_experiments() -> int:
    """``herd-bench --list``: every valid id with what it reproduces."""
    print("tables:")
    for exp_id in sorted(TABLES):
        print("  %-8s %s" % (exp_id, _describe(TABLES[exp_id])))
    print("figures:")
    for exp_id in sorted(FIGURES):
        print("  %-8s %s" % (exp_id, _describe(FIGURES[exp_id])))
    print("(or 'all'; sweeps of these run under herd-lab, see docs/LAB.md)")
    return 0


def _outcome_table(rows) -> str:
    """The per-scenario outcome table printed after ``--chaos`` runs."""
    header = (
        "scenario", "seed", "acked", "lost", "availability", "p99.9_us",
        "checker", "verdict",
    )
    cells = [header] + [
        (
            str(row["scenario"]),
            str(row["seed"]),
            str(row["ops_acked"]),
            str(row["ops_lost"]),
            "%.4f" % row["availability"],
            "%.1f" % row["p999_us"],
            str(row["checker"]),
            str(row["verdict"]),
        )
        for row in rows
    ]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    )


def _run_chaos(args) -> int:
    """``herd-bench --chaos``: seeded chaos runs with invariant checks."""
    from repro.faults import run_chaos
    from repro.faults.chaos import SCENARIOS

    named = [name for name in SCENARIOS if name]  # None: the classic run
    if args.chaos_scenario == "list":
        print("chaos scenarios:")
        for name in named:
            print("  %-18s %s" % (name, SCENARIOS[name].blurb))
        print("(or 'all'; default: classic unreplicated chaos)")
        return 0
    if args.chaos_scenario == "all":
        scenarios = named
    elif args.chaos_scenario:
        if args.chaos_scenario not in SCENARIOS:
            print(
                "unknown chaos scenario %r (try --chaos-scenario list)"
                % args.chaos_scenario
            )
            return 2
        scenarios = [args.chaos_scenario]
    else:
        scenarios = [None]

    session = None
    failures = 0
    rows = []
    with contextlib.ExitStack() as stack:
        if args.metrics or args.trace:
            from repro.obs import session as obs

            session = stack.enter_context(
                obs.capture(
                    metrics=args.metrics is not None,
                    trace=args.trace is not None,
                    trace_limit=args.trace_limit or obs.DEFAULT_TRACE_EVENTS,
                )
            )
        for i in range(args.chaos_runs):
            seed = args.chaos_seed + i
            for scenario in scenarios:
                if session is not None:
                    session.label = "chaos-%d" % seed
                    if scenario:
                        session.label += "-" + scenario
                started = time.time()
                report = run_chaos(
                    seed=seed,
                    horizon_ns=args.chaos_horizon,
                    intensity=args.chaos_intensity,
                    scenario=scenario,
                    replication_factor=args.chaos_replication,
                    ack_policy=args.chaos_ack,
                )
                print(report.summary())
                print(
                    "[chaos seed=%d took %.1f s]\n" % (seed, time.time() - started)
                )
                rows.append(report.outcome_row())
                if not report.ok:
                    failures += 1
    if len(rows) > 1 or scenarios != [None]:
        print(_outcome_table(rows))
        print()
    if session is not None:
        if args.metrics:
            session.write_metrics(args.metrics)
            print("metrics: %s (%d runs)" % (args.metrics, len(session.runs)))
        if args.trace:
            if args.trace.endswith(".jsonl"):
                session.write_trace_jsonl(args.trace)
            else:
                session.write_trace(args.trace)
            print("trace: %s" % args.trace)
    if failures:
        print(
            "%d of %d chaos runs violated invariants" % (failures, len(rows)),
            file=sys.stderr,
        )
        return 1
    return 0


def _run_nemesis(args) -> int:
    """``herd-bench --nemesis N``: randomized schedule search.

    Exit status 1 means the search found violations (artifacts, if a
    directory was given, hold the shrunk reproducers) — on a healthy
    tree a nemesis search is expected to exit 0.
    """
    from repro.nemesis import DATAPLANE_NAMES, search

    dataplanes = None
    if args.nemesis_dataplanes:
        dataplanes = tuple(
            name.strip() for name in args.nemesis_dataplanes.split(",") if name.strip()
        )
        unknown = sorted(set(dataplanes) - set(DATAPLANE_NAMES))
        if unknown:
            print(
                "unknown dataplane%s %s (have: %s)"
                % (
                    "s" if len(unknown) > 1 else "",
                    ", ".join(map(repr, unknown)),
                    ", ".join(DATAPLANE_NAMES),
                ),
                file=sys.stderr,
            )
            return 2
    started = time.time()
    report = search(
        args.nemesis,
        seed=args.nemesis_seed,
        dataplanes=dataplanes,
        oracles=tuple(args.nemesis_oracle or ()),
        artifact_dir=args.nemesis_dir,
        progress=print,
    )
    print(report.summary())
    print("[nemesis search took %.1f s]" % (time.time() - started))
    return 0 if report.ok else 1


def _run_nemesis_replay(args) -> int:
    """``herd-bench --nemesis-replay PATH``: re-run a repro artifact.

    Exit status 0 means the artifact reproduced byte-identically —
    same violations, same fingerprint.
    """
    from repro.nemesis import replay

    try:
        result = replay(args.nemesis_replay)
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(result.summary())
    return 0 if result.reproduced else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="herd-bench",
        description="Reproduce the tables and figures of "
        "'Using RDMA Efficiently for Key-Value Services' (SIGCOMM 2014).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (fig2..fig14, table1, table2) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("bench", "full"),
        default="bench",
        help="sweep resolution: bench (fast) or full (paper resolution)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render each figure as a terminal chart",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write per-run metrics (station utilization, queue-delay "
        "histograms, op counters) as JSON to PATH",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write hardware-station spans to PATH: Chrome trace-event "
        "JSON (load via chrome://tracing), or JSON lines if PATH ends "
        "in .jsonl",
    )
    parser.add_argument(
        "--trace-limit",
        type=int,
        default=None,
        metavar="N",
        help="bound each run's trace ring buffer to the last N events",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the fault-injection chaos harness instead of an "
        "experiment: a randomized (but seeded) mix of loss, corruption, "
        "duplication, reordering, NIC stalls, RNR, and a server-process "
        "crash, with end-to-end safety invariants checked afterwards",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="base seed for the chaos runs (default 0)",
    )
    parser.add_argument(
        "--chaos-runs",
        type=int,
        default=1,
        metavar="K",
        help="number of chaos runs, seeded N, N+1, ... (default 1)",
    )
    parser.add_argument(
        "--chaos-horizon",
        type=float,
        default=300_000.0,
        metavar="NS",
        help="fault horizon per run in simulated ns (default 300000)",
    )
    parser.add_argument(
        "--chaos-intensity",
        type=float,
        default=1.0,
        metavar="X",
        help="scale factor on the randomized fault rates (default 1.0)",
    )
    parser.add_argument(
        "--chaos-scenario",
        default=None,
        metavar="S",
        help="run a named fault scenario: replicated (HA) failover or "
        "open-loop overload (repro.qos) ('list' prints them; 'all' runs "
        "every one; default: classic unreplicated chaos); the invariant "
        "checks gate the result and a per-scenario outcome table is "
        "printed",
    )
    parser.add_argument(
        "--chaos-replication",
        type=int,
        default=3,
        metavar="RF",
        help="replicas per partition for --chaos-scenario runs (default 3)",
    )
    parser.add_argument(
        "--chaos-ack",
        choices=("all", "majority"),
        default="majority",
        help="replication ack policy for --chaos-scenario runs "
        "(default majority)",
    )
    parser.add_argument(
        "--nemesis",
        type=int,
        default=None,
        metavar="N",
        help="search N randomized fault schedules across the dataplanes "
        "(repro.nemesis): every failure is shrunk to a minimal "
        "reproducer; exit 1 if any invariant was violated",
    )
    parser.add_argument(
        "--nemesis-seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed for the nemesis search (default 0)",
    )
    parser.add_argument(
        "--nemesis-dataplanes",
        default=None,
        metavar="A,B,...",
        help="comma-separated dataplanes to torture (default: all of "
        "herd, ha, elastic, qos, txn-rpc, txn-onesided)",
    )
    parser.add_argument(
        "--nemesis-oracle",
        action="append",
        metavar="NAME",
        help="layer a named extra oracle over the invariant suite "
        "(repeatable; e.g. planted-no-crash, the planted-bug arm)",
    )
    parser.add_argument(
        "--nemesis-dir",
        default=None,
        metavar="DIR",
        help="write each failure's shrunk repro artifact (JSON) here",
    )
    parser.add_argument(
        "--nemesis-replay",
        default=None,
        metavar="PATH",
        help="re-run a nemesis repro artifact and verify it reproduces "
        "byte-identically (exit 0 iff it does)",
    )
    args = parser.parse_args(argv)

    if args.nemesis_replay is not None:
        return _run_nemesis_replay(args)
    if args.nemesis is not None:
        return _run_nemesis(args)
    if args.chaos:
        return _run_chaos(args)

    if args.list or not args.experiments:
        return _list_experiments()

    try:
        wanted = resolve_experiments(args.experiments)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    # Fail on unwritable output paths *before* burning sweep time.
    for path in (args.metrics, args.trace):
        if path is None:
            continue
        try:
            with open(path, "w"):
                pass
        except OSError as error:
            print("cannot write %s: %s" % (path, error), file=sys.stderr)
            return 2

    session = None
    with contextlib.ExitStack() as stack:
        if args.metrics or args.trace:
            from repro.obs import session as obs

            session = stack.enter_context(
                obs.capture(
                    metrics=args.metrics is not None,
                    trace=args.trace is not None,
                    trace_limit=args.trace_limit or obs.DEFAULT_TRACE_EVENTS,
                )
            )
        for exp in wanted:
            if session is not None:
                session.label = exp
            started = time.time()
            if exp in TABLES:
                print(TABLES[exp]())
            else:
                data = FIGURES[exp](scale=args.scale)
                print(format_figure(data))
                if args.chart:
                    from repro.bench.ascii_chart import chart

                    print()
                    print(chart(data))
            print("[%s took %.1f s]\n" % (exp, time.time() - started))

    if session is not None:
        if args.metrics:
            session.write_metrics(args.metrics)
            print("metrics: %s (%d runs)" % (args.metrics, len(session.runs)))
        if args.trace:
            if args.trace.endswith(".jsonl"):
                session.write_trace_jsonl(args.trace)
            else:
                session.write_trace(args.trace)
            print("trace: %s" % args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
