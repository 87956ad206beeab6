#!/usr/bin/env python
"""The lab: a two-axis sweep, run in parallel, cached, and gated.

Defines a value-size x GET-fraction sweep over small HERD deployments,
runs it on 2 worker processes (a second run is served entirely from
the result-store cache), captures a baseline, and prints a gate
report — first against the honest baseline (PASS), then against a
tampered one (FAIL), which is exactly how CI catches a perf
regression.

The same flow from the command line:

    herd-lab run smoke --workers 4
    herd-lab baseline smoke --out base.json
    herd-lab gate smoke --baseline base.json

Run:  python examples/lab.py
"""

import os
import tempfile

from repro.lab import (
    Axis,
    ResultStore,
    SweepSpec,
    capture_baseline,
    check,
    run_sweep,
)


def main() -> None:
    spec = SweepSpec(
        name="example",
        task="herd",
        base={
            "n_clients": 8,
            "n_client_machines": 4,
            "n_server_processes": 2,
            "measure_ns": 60_000.0,
            "n_keys": 1 << 10,
        },
        axes=[
            Axis("value_size", [32, 256]),
            Axis("get_fraction", [0.5, 0.95]),
        ],
        description="2x2 HERD grid: value size x GET fraction",
    )

    with tempfile.TemporaryDirectory(prefix="herd-lab-example-") as workdir:
        store = ResultStore(os.path.join(workdir, "lab"))

        print("== running %d points on 2 workers" % len(spec.points()))
        outcome = run_sweep(spec, store=store, workers=2)
        print(
            "ran %d, cached %d, failed %d\n"
            % (outcome.n_ran, outcome.n_cached, outcome.n_failed)
        )

        print("== running the same sweep again (everything cached)")
        again = run_sweep(spec, store=store, workers=2, progress=False)
        print("ran %d, cached %d\n" % (again.n_ran, again.n_cached))

        print("== gate against the honest baseline")
        baseline = capture_baseline(spec, again.results)
        report = check(spec, again.results, baseline)
        print(report.summary())

        print("\n== gate against a tampered baseline (pretend HERD used to be 30% faster)")
        label = sorted(baseline["points"])[0]
        baseline["points"][label]["mops"] *= 1.3
        report = check(spec, again.results, baseline)
        print(report.summary())
        print("\n(exit code in CI would be %d)" % (0 if report.passed else 1))


if __name__ == "__main__":
    main()
