"""Fault injection for the simulated cluster (the chaos layer).

``FaultPlan`` declares *what* goes wrong (seeded, deterministic);
``FaultInjector`` makes it happen on a live fabric/cluster;
``run_chaos`` wraps a whole HERD run in a randomized plan and checks
the safety invariants behind the paper's reliability argument
(Section 2.2.3).  ``repro.faults.rng`` provides the named child RNG
streams everything here draws from.

The names resolve on first access: ``repro.herd`` draws its RNG streams
from ``repro.faults.rng`` while the chaos harness sits above
``repro.herd``, and ``import repro.faults.rng`` must not load either.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    ".chaos": ("ChaosReport", "run_chaos"),
    ".injector": ("FaultInjector",),
    ".plan": ("FaultPlan",),
    ".rng": ("child_rng", "derive_seed"),
})

__all__ = [
    "ChaosReport",
    "FaultInjector",
    "FaultPlan",
    "child_rng",
    "derive_seed",
    "run_chaos",
]
