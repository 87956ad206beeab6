"""The nemesis end to end: search, plant a bug, shrink, replay.

Four steps:

1. generate one random schedule per dataplane and run it through the
   invariant-oracle suite (all must hold on the healthy tree);
2. a small multi-schedule search, round-robin over the dataplanes;
3. the planted-bug arm: layer the `planted-no-crash` oracle (which
   pretends server crashes are bugs), find a "failing" schedule, and
   delta-debug it down to the single crash atom;
4. freeze the minimal reproducer as a JSON artifact and replay it,
   byte-identically, the way `herd-bench --nemesis-replay` does.

Run:  python examples/nemesis.py
"""

import os
import tempfile

from repro.faults.rng import derive_seed
from repro.nemesis import (
    DATAPLANE_NAMES,
    atoms_of,
    build_artifact,
    generate,
    replay,
    resolve,
    run_schedule,
    save_artifact,
    search,
    shrink_schedule,
)


def one_schedule_per_dataplane() -> None:
    print("== one generated schedule per dataplane")
    for name in DATAPLANE_NAMES:
        schedule = generate(seed=7, dataplane=name)
        result = run_schedule(schedule)
        assert result.ok, result.violations
        print("  %-13s %d atom(s), fingerprint %s"
              % (name, len(atoms_of(schedule.plan)), result.fingerprint[:12]))


def small_search() -> None:
    print("== search: 6 schedules, round-robin")
    report = search(6, seed=1, shrink=False)
    assert report.ok, report.failures
    print("  " + report.summary())


def planted_bug(workdir: str) -> str:
    print("== planted-bug arm: find, shrink to the crash atom")
    oracles = resolve(("planted-no-crash",))
    found = None
    for i in range(24):
        schedule = generate(derive_seed(7, "nemesis.planted.%d" % i), "herd")
        if schedule.plan.crashes:
            found = schedule
            break
    assert found is not None, "no crash move in 24 draws"
    assert not run_schedule(found, oracles).ok
    shrunk = shrink_schedule(found, oracles)
    assert shrunk.atoms_after == 1 and shrunk.minimal
    print("  " + shrunk.summary())
    print("  minimal plan:")
    for line in shrunk.schedule.plan.describe().splitlines()[1:]:
        print("  " + line)

    path = os.path.join(workdir, "repro.json")
    artifact = build_artifact(
        run_schedule(shrunk.schedule, oracles), oracles=("planted-no-crash",)
    )
    save_artifact(path, artifact)
    print("  artifact -> %s" % path)
    return path


def replay_artifact(path: str) -> None:
    print("== replay the frozen reproducer")
    outcome = replay(path)
    assert outcome.reproduced
    print("  " + outcome.summary())


def main() -> None:
    one_schedule_per_dataplane()
    small_search()
    with tempfile.TemporaryDirectory(prefix="nemesis-") as workdir:
        replay_artifact(planted_bug(workdir))


if __name__ == "__main__":
    main()
