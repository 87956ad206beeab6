"""Run one nemesis schedule, return one verdict.

:func:`run_schedule` is the single entry for both the search loop and
artifact replay — a repro artifact re-runs through exactly the code
path that produced it, so a replay is byte-identical by construction
(same schedule -> same simulation -> same fingerprint).

Every dataplane is one :func:`repro.faults.chaos.run_chaos` call with
the spec's kwargs (a ``SCENARIOS`` entry, or the classic run for
``herd``), the generated plan replacing the scenario's own faults, and
the scenario's oracles judging it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from repro.nemesis.schedule import DATAPLANES, Schedule


@dataclass
class NemesisResult:
    """One schedule's verdict: the oracle findings and the fingerprint."""

    schedule: Schedule
    violations: List[str] = field(default_factory=list)
    fingerprint: str = ""
    #: the underlying ChaosReport, for deeper inspection
    report: object = None

    @property
    def dataplane(self) -> str:
        return self.schedule.dataplane

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = "nemesis %s seed=%d: %s" % (
            self.dataplane,
            self.schedule.seed,
            "OK" if self.ok else "FAILED",
        )
        lines = [head, "  fingerprint %s" % self.fingerprint[:16]]
        for violation in self.violations:
            lines.append("  VIOLATION: %s" % violation)
        return "\n".join(lines)


#: an extra oracle: inspects a result, returns violation strings
Oracle = Callable[[NemesisResult], List[str]]


def run_schedule(
    schedule: Schedule, extra_oracles: Sequence[Oracle] = ()
) -> NemesisResult:
    """Run one schedule through its dataplane and every oracle."""
    from repro.faults import run_chaos

    if schedule.dataplane not in DATAPLANES:
        raise ValueError("unknown dataplane %r" % (schedule.dataplane,))
    report = run_chaos(
        seed=schedule.seed,
        horizon_ns=schedule.horizon_ns,
        plan=schedule.plan,
        **schedule.runner_params()
    )
    result = NemesisResult(
        schedule=schedule,
        violations=list(report.violations),
        fingerprint=report.fingerprint,
        report=report,
    )
    for oracle in extra_oracles:
        result.violations.extend(oracle(result))
    return result
