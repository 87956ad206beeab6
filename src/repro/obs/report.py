"""The per-run observability bundle experiments attach to results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class RunReport:
    """Metrics and trace accounting for one simulated run.

    Built by the experiment harnesses (e.g.
    :meth:`repro.herd.cluster.HerdCluster.run`) whenever the simulator
    carries a :class:`~repro.obs.registry.MetricsRegistry`, and attached
    to the :class:`~repro.bench.result.RunResult` so figure code can
    justify its numbers with per-station accounting.
    """

    #: experiment or harness label ("fig9", "herd-cluster", ...)
    name: str = ""
    #: simulated clock at collection time
    sim_time_ns: float = 0.0
    #: full :meth:`MetricsRegistry.snapshot` output
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: number of trace events held by the simulator's tracer, if any
    trace_events: int = 0
    #: per-scenario outcome rows (chaos/HA runs): scenario, ops acked,
    #: ops lost, checker verdict — see ChaosReport.outcome_row()
    outcomes: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_sim(cls, sim: Any, name: str = "") -> Optional["RunReport"]:
        """Collect a report from ``sim``; None when nothing is attached."""
        registry = getattr(sim, "metrics", None)
        tracer = getattr(sim, "tracer", None)
        if registry is None and tracer is None:
            return None
        return cls(
            name=name,
            sim_time_ns=sim.now,
            metrics=registry.snapshot() if registry is not None else {},
            trace_events=len(tracer.events) if tracer is not None else 0,
        )
