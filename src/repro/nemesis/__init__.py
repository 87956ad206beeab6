"""repro.nemesis: randomized chaos-schedule search with shrinking.

The nemesis closes the loop the chaos harness opened: instead of one
seeded fault plan per run, it *searches* — generating random fault
schedules over every dataplane (HERD, replicated HA, elastic
migration, QoS overload, both transaction dataplanes), judging each
with the unified invariant-oracle suite, and delta-debugging any
failure down to a locally-minimal reproducer frozen as a JSON artifact
that replays byte-identically (``herd-bench --nemesis-replay``).

Layers:

* :mod:`~repro.nemesis.schedule` — the dataplane registry and the
  seeded schedule generator;
* :mod:`~repro.nemesis.dataplanes` — one schedule, one ``run_chaos``
  call, its scenario's oracle verdicts;
* :mod:`~repro.nemesis.oracle` — named extra oracles (including the
  planted-bug arm that proves the machinery finds and shrinks);
* :mod:`~repro.nemesis.shrink` — ddmin + 1-minimality + window
  halving;
* :mod:`~repro.nemesis.search` — the top-level search loop;
* :mod:`~repro.nemesis.artifact` — JSON repro artifacts and replay.

See docs/NEMESIS.md for the design and examples/nemesis.py for a tour.
"""

from repro.nemesis.artifact import (
    ReplayResult,
    build_artifact,
    load_artifact,
    replay,
    save_artifact,
)
from repro.nemesis.dataplanes import NemesisResult, run_schedule
from repro.nemesis.oracle import ORACLES, planted_no_crash, resolve
from repro.nemesis.schedule import (
    DATAPLANE_NAMES,
    DATAPLANES,
    DataplaneSpec,
    Schedule,
    generate,
)
from repro.nemesis.search import FailureCase, SearchReport, search
from repro.nemesis.shrink import (
    ShrinkResult,
    atoms_of,
    plan_from_atoms,
    shrink_schedule,
)

__all__ = [
    "DATAPLANES",
    "DATAPLANE_NAMES",
    "DataplaneSpec",
    "FailureCase",
    "NemesisResult",
    "ORACLES",
    "ReplayResult",
    "Schedule",
    "SearchReport",
    "ShrinkResult",
    "atoms_of",
    "build_artifact",
    "generate",
    "load_artifact",
    "plan_from_atoms",
    "planted_no_crash",
    "replay",
    "resolve",
    "run_schedule",
    "save_artifact",
    "search",
    "shrink_schedule",
]
