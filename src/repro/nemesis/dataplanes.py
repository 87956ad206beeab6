"""Dataplane adapters: run one nemesis schedule, return one verdict.

:func:`run_schedule` is the single entry for both the search loop and
artifact replay — a repro artifact re-runs through exactly the code
path that produced it, so a replay is byte-identical by construction
(same schedule -> same simulation -> same fingerprint).

Each adapter maps a schedule onto its dataplane's existing harness:

* ``herd`` / ``ha`` / ``elastic`` / ``qos`` run through
  :func:`repro.faults.chaos.run_chaos` with the generated plan
  substituted for the scenario's own fault layering — every invariant
  that harness checks (drain, accounting identities, value
  correctness, monotonic clock, linearizability, lost acked writes,
  split-brain witness, hwm and fencing-epoch monotonicity) is the
  oracle suite;
* ``txn-rpc`` / ``txn-onesided`` build a :class:`repro.txn.TxnCluster`,
  install the plan's link/device rules on its fabric, map a crash rule
  onto ``TxnConfig.crash`` (the pause-one-participant arm), and audit
  with the strict-serializability checker plus the torn-write audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Sequence

from repro.nemesis.schedule import DATAPLANES, Schedule


@dataclass
class NemesisResult:
    """One schedule's verdict: the oracle findings and the fingerprint."""

    schedule: Schedule
    violations: List[str] = field(default_factory=list)
    fingerprint: str = ""
    #: the underlying ChaosReport / TxnReport, for deeper inspection
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


def _run_chaos_schedule(schedule: Schedule) -> NemesisResult:
    from repro.faults import run_chaos

    report = run_chaos(
        seed=schedule.seed,
        horizon_ns=schedule.horizon_ns,
        plan=schedule.plan,
        **schedule.runner_params()
    )
    return NemesisResult(
        schedule=schedule,
        violations=list(report.violations),
        fingerprint=report.fingerprint,
        report=report,
    )


def _run_txn_schedule(schedule: Schedule) -> NemesisResult:
    from repro.txn import TxnCluster, TxnConfig

    params = schedule.runner_params()
    warmup_ns = params.pop("warmup_ns")
    measure_ns = params.pop("measure_ns")
    n_clients = params.pop("n_clients")
    n_client_machines = params.pop("n_client_machines")
    horizon_ns = warmup_ns + measure_ns
    plan = schedule.plan
    crash = None
    if plan.crashes:
        # TxnConfig pauses one participant process; the plan's crash
        # rule names a server index, mapped onto a partition here
        rule = plan.crashes[0]
        crash = (
            rule.server_index % params["n_partitions"],
            rule.at_ns,
            rule.down_ns,
        )
        plan = replace(plan, crashes=[])
    config = TxnConfig(crash=crash, **params)
    cluster = TxnCluster(
        config,
        n_clients=n_clients,
        n_client_machines=n_client_machines,
        seed=schedule.seed,
    )
    if not plan.empty:
        cluster.install_faults(plan.clamped(horizon_ns))
    report = cluster.run(warmup_ns=warmup_ns, measure_ns=measure_ns)
    violations: List[str] = []
    if report.violation is not None:
        violations.append("not strictly serializable: %s" % report.violation)
    if report.torn_writes:
        violations.append("%d torn writes in the final state" % report.torn_writes)
    return NemesisResult(
        schedule=schedule,
        violations=violations,
        fingerprint=report.fingerprint,
        report=report,
    )


def run_schedule(
    schedule: Schedule, extra_oracles: Sequence[Oracle] = ()
) -> NemesisResult:
    """Run one schedule through its dataplane and every oracle."""
    if schedule.dataplane not in DATAPLANES:
        raise ValueError("unknown dataplane %r" % (schedule.dataplane,))
    if schedule.dataplane.startswith("txn-"):
        result = _run_txn_schedule(schedule)
    else:
        result = _run_chaos_schedule(schedule)
    for oracle in extra_oracles:
        result.violations.extend(oracle(result))
    return result
