"""Lab tasks: what one sweep point actually runs.

A task takes a resolved parameter dict plus the point seed and returns
a flat ``{metric_name: value}`` dict.  Four tasks cover the repo's
harnesses:

* ``herd`` — one :func:`repro.bench.figures.run_herd` cell; headline
  metrics are ``mops``, ``p50_us``, ``p99_us`` (the gate's defaults);
* ``chaos`` — one :func:`repro.faults.run_chaos` run; ``ok`` must stay
  1.0 and the completion counters are tracked;
* ``ha`` — a replicated chaos scenario plus an unreplicated reference
  run; gates availability, lost writes, failover latency, and the
  replication goodput overhead;
* ``elastic`` — a ``migrate-under-kill`` resharding run plus a
  born-full reference run; gates the elasticity ``tracking_ratio``
  (post-reshard tail throughput over the reference's), lost writes,
  and migration completion;
* ``qos`` — an overload scenario (flash crowd / aggressor tenant /
  slow client) with shedding on plus a shedding-off reference; gates
  the in-SLO goodput floor, lost writes, and the p99.9 tail;
* ``figure`` — a whole figure from :data:`repro.bench.figures.FIGURES`,
  flattened to one metric per ``series/x`` cell, so every existing
  figure is lab-runnable (cached, parallel, gated) without changes.

Every task runs inside :func:`repro.obs.session.capture`, so each point
also reports the simulated clock and op counters of its run — the
per-point slice of the observability layer.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict

from repro.obs import session as obs

#: metric names whose larger values are better (throughput-like);
#: latency-like names (``*_us``/``*_ns``) are better smaller, and
#: anything else is gated in both directions
HIGHER_IS_BETTER = ("mops", "ops", "completed", "ok")


def metric_direction(name: str) -> int:
    """+1 if larger is better, -1 if smaller is better, 0 if two-sided."""
    short = name.rsplit("/", 1)[-1]
    if short in HIGHER_IS_BETTER or short in (
        "availability",
        "commits",
        "ops_acked",
        "tracking_ratio",
        "goodput_ratio",
        "planted_found",
        "planted_minimal",
        "planted_replay_identical",
    ):
        return 1
    if short.endswith(("_us", "_ns")) or short in (
        "retries",
        "abort_rate",
        "torn_writes",
        "abandoned",
        "violations",
        "ops_lost",
        "stale_nacks",
        "goodput_overhead_pct",
    ):
        return -1
    return 0


def _obs_metrics(session: obs.ObsSession) -> Dict[str, float]:
    """A compact, deterministic digest of a point's captured runs."""
    sim_ns = 0.0
    herd_ops = 0
    for run in session.runs:
        if run.registry is None:
            continue
        snapshot = run.registry.snapshot()
        sim_ns += snapshot.get("sim_time_ns", 0.0)
        for name, value in snapshot.get("counters", {}).items():
            if name.startswith("herd.server") and name.endswith(".ops"):
                herd_ops += value
    out = {"obs/sim_time_ns": sim_ns}
    if herd_ops:
        out["obs/server_ops"] = float(herd_ops)
    return out


def run_herd_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    from repro.bench.figures import run_herd

    kwargs = dict(params)
    kwargs.setdefault("seed", seed)
    with obs.capture(metrics=True) as session:
        result = run_herd(**kwargs)
    metrics = {
        "mops": result.mops,
        "ops": float(result.ops),
        "mean_us": result.latency["mean_us"],
        "p50_us": result.latency["p50_us"],
        "p99_us": result.latency["p99_us"],
    }
    metrics.update(_obs_metrics(session))
    return metrics


def run_chaos_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    from repro.faults import run_chaos

    kwargs = dict(params)
    kwargs.setdefault("seed", seed)
    with obs.capture(metrics=True) as session:
        report = run_chaos(**kwargs)
    metrics = {
        "ok": 1.0 if report.ok else 0.0,
        "completed": float(report.completed),
        "retries": float(report.retries),
        "abandoned": float(report.abandoned),
        "violations": float(len(report.violations)),
    }
    metrics.update(_obs_metrics(session))
    return metrics


def _priced_chaos(params: Dict[str, Any], seed: int, scenario: str):
    """One chaos scenario run plus the reference run it is priced
    against — the scenario's own ``reference`` arm in
    :data:`repro.faults.chaos.SCENARIOS`."""
    from repro.faults.chaos import SCENARIOS, run_chaos

    kwargs = dict(params)
    kwargs.setdefault("seed", seed)
    kwargs.setdefault("scenario", scenario)
    with obs.capture(metrics=True) as session:
        report = run_chaos(**kwargs)
        reference = run_chaos(**SCENARIOS[kwargs["scenario"]].reference(kwargs))
    metrics = {"ok": 1.0 if report.ok and reference.ok else 0.0}
    metrics.update(_obs_metrics(session))
    return report, reference, metrics


def run_ha_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """One replicated chaos scenario plus an unreplicated reference run.

    The scenario run prices availability (checker verdict, acked/lost
    ops, failover latency); the reference run — same workload and
    cluster shape, ``replication_factor=1``, fault-free — prices the
    replication overhead as ``goodput_overhead_pct``: how much goodput
    the replicated cluster gives up relative to the classic one.
    """
    report, reference, metrics = _priced_chaos(params, seed, "kill-primary")
    horizon_ns = float(params.get("horizon_ns", 300_000.0))
    goodput_kops = report.completed / horizon_ns * 1e6
    ref_kops = reference.completed / horizon_ns * 1e6
    overhead_pct = (
        (ref_kops - goodput_kops) / ref_kops * 100.0 if ref_kops else 0.0
    )
    metrics.update(
        availability=report.availability,
        failover_latency_us=report.failover_latency_ns / 1000.0,
        goodput_kops=goodput_kops,
        goodput_overhead_pct=overhead_pct,
        ops_acked=float(report.ops_acked),
        ops_lost=float(report.ops_lost),
        stale_nacks=float(report.stale_nacks),
        replays=float(report.replays),
        promotions=float(report.promotions),
    )
    return metrics


def run_elastic_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """Resharding under chaos, priced against a born-full reference run.

    The scenario run joins a spare partition mid-horizon and kills the
    first migration source's primary (``migrate-under-kill``).  The
    reference run keeps everything else identical — same seed, noise,
    and pinned crash — but starts with *all* partitions active, so no
    migration happens.  ``tracking_ratio`` is the scenario's completed
    ops over the reference's: how closely elastic throughput tracks the
    cluster it grew into, pricing the whole reshard (holds, reroutes,
    dual writes, the aborted attempt).  The acceptance bar is ~0.9.
    """
    report, reference, metrics = _priced_chaos(params, seed, "migrate-under-kill")
    horizon_ns = float(params.get("horizon_ns", 300_000.0))
    metrics.update(
        tracking_ratio=(
            report.completed / reference.completed if reference.completed else 0.0
        ),
        availability=report.availability,
        ops_acked=float(report.ops_acked),
        ops_lost=float(report.ops_lost),
        tail_completed=float(report.tail_completed),
        ref_tail_completed=float(reference.tail_completed),
        goodput_kops=report.completed / horizon_ns * 1e6,
        map_version=float(report.map_version),
        migrations_done=float(report.migrations_done),
        migrations_aborted=float(report.migrations_aborted),
        records_migrated=float(report.records_migrated),
        reroutes=float(report.reroutes),
    )
    return metrics


def run_qos_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """One overload scenario with shedding on, priced against the same
    crowd with shedding off.

    The protected run gates the repro.qos contract — in-SLO goodput
    floor (``goodput_ratio``), zero lost acked writes, the p99.9 tail —
    while the unprotected reference documents the collapse admission
    control prevents (``unprotected_ratio`` is informational: it *should*
    be terrible for flash crowds).  For ``aggressor-tenant`` points the
    per-tenant tails come along, pricing the isolation band.
    """
    report, reference, metrics = _priced_chaos(
        dict(params, shedding=True), seed, "flash-crowd"
    )
    metrics.update(
        goodput_ratio=report.goodput_ratio,
        unprotected_ratio=reference.goodput_ratio,
        pre_burst_mops=report.pre_burst_mops,
        burst_mops=report.burst_mops,
        p999_us=report.p999_us,
        ops_lost=float(report.ops_lost),
        shed=float(report.shed),
        retry_after_nacks=float(report.retry_after_nacks),
        rejected=float(report.rejected),
        offered=float(report.offered),
        completed=float(report.completed),
    )
    for tenant, p99 in sorted(report.tenant_p99_us.items()):
        metrics["tenant%d_p99_us" % tenant] = p99
    return metrics


def run_txn_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """One repro.txn measurement cell, audit folded into ``ok``.

    ``ok`` is 1.0 only when the run's history passed the strict-
    serializability checker *and* the final store scan found zero torn
    writes — a faster commit path that corrupts data must read as a
    regression, not an improvement.  The throughput/abort metrics then
    price the RPC-vs-one-sided crossover the spec sweeps.
    """
    from repro.bench.figures import run_txn

    kwargs = dict(params)
    kwargs.setdefault("seed", seed)
    with obs.capture(metrics=True) as session:
        report = run_txn(**kwargs)
    metrics = {
        "ok": 1.0 if report.ok else 0.0,
        "mops": report.result.mops,
        "commits": float(report.commits),
        "aborts": float(report.aborts),
        "abort_rate": report.abort_rate,
        "torn_writes": float(report.torn_writes),
        "retries": float(report.retries),
        "p50_us": report.result.latency.get("p50_us", 0.0),
        "p99_us": report.result.latency.get("p99_us", 0.0),
    }
    metrics.update(_obs_metrics(session))
    return metrics


def run_nemesis_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """Bounded nemesis search: a healthy arm and a planted-bug arm.

    The healthy arm searches ``n_schedules`` randomized fault schedules
    across the dataplanes and must find **zero** violations — that is
    the robustness contract this task gates.  The planted arm layers
    the ``planted-no-crash`` oracle (server crashes are declared a bug)
    over up to ``planted_cap`` schedules, and the machinery itself is
    then on trial: the search must find the planted failure, the
    shrinker must reduce it to the crash atom alone (verified
    1-minimal), and the minimal reproducer must re-run byte-identically
    (fingerprint and violations both matching).
    """
    from repro.faults.rng import derive_seed
    from repro.nemesis import generate, run_schedule, search, shrink_schedule
    from repro.nemesis.oracle import resolve

    seed = int(params.get("seed", seed))
    n = int(params.get("n_schedules", 12))
    planted_cap = int(params.get("planted_cap", 24))
    dataplanes = params.get("dataplanes")
    if dataplanes is not None:
        dataplanes = tuple(dataplanes)
    healthy = search(n, seed=seed, dataplanes=dataplanes, shrink=False)

    oracles = resolve(("planted-no-crash",))
    planted_found = 0.0
    planted_atoms = 0.0
    planted_minimal = 0.0
    planted_replay_identical = 0.0
    shrink_tests = 0.0
    for i in range(planted_cap):
        schedule = generate(derive_seed(seed, "nemesis.planted.%d" % i), "herd")
        result = run_schedule(schedule, oracles)
        if result.ok:
            continue
        planted_found = 1.0
        shrunk = shrink_schedule(schedule, extra_oracles=oracles)
        planted_atoms = float(shrunk.atoms_after)
        planted_minimal = 1.0 if shrunk.minimal else 0.0
        shrink_tests = float(shrunk.tests)
        replayed = run_schedule(shrunk.schedule, oracles)
        planted_replay_identical = (
            1.0
            if replayed.fingerprint == shrunk.fingerprint
            and replayed.violations == shrunk.violations
            else 0.0
        )
        break
    ok = (
        healthy.ok
        and planted_found
        and planted_atoms == 1.0
        and planted_minimal
        and planted_replay_identical
    )
    return {
        "ok": 1.0 if ok else 0.0,
        "examined": float(healthy.examined),
        "violations": float(len(healthy.failures)),
        "planted_found": planted_found,
        "planted_atoms": planted_atoms,
        "planted_minimal": planted_minimal,
        "planted_replay_identical": planted_replay_identical,
        "shrink_tests": shrink_tests,
    }


def run_figure_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    from repro.bench.figures import FIGURES

    kwargs = dict(params)
    figure_id = kwargs.pop("figure", None)
    if figure_id not in FIGURES:
        raise ValueError(
            "figure task needs a 'figure' param in %s; got %r"
            % (sorted(FIGURES), figure_id)
        )
    with obs.capture(metrics=True) as session:
        data = FIGURES[figure_id](**kwargs)
    metrics: Dict[str, float] = {}
    for series in data.series:
        for x, y in series.points:
            if isinstance(y, (int, float)) and math.isfinite(y):
                metrics["%s/%s" % (series.label, x)] = float(y)
    metrics.update(_obs_metrics(session))
    return metrics


def run_selftest_task(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """A microsecond-scale task for exercising the lab machinery itself.

    Deterministic in (params, seed) like every task, but its
    ``behavior`` param can simulate the runner's failure modes:
    ``"raise"`` throws, ``"exit"`` kills the worker process outright
    (a stand-in for a segfault), ``"sleep"`` hangs for ``sleep_s``
    seconds.  Used by the test suite and handy for smoke-testing a
    sweep definition before pointing it at real experiments.
    """
    import os
    import time

    from repro.faults.rng import child_rng

    behavior = params.get("behavior", "ok")
    if behavior == "raise":
        raise RuntimeError("selftest point asked to fail")
    if behavior == "exit":
        os._exit(17)
    if behavior == "sleep":
        time.sleep(float(params.get("sleep_s", 60.0)))
    value = float(params.get("value", 1.0))
    return {
        "value": value,
        "mops": value * 2.0,
        "seed_draw": round(child_rng(seed, "lab.selftest").random(), 12),
    }


TASKS: Dict[str, Callable[[Dict[str, Any], int], Dict[str, float]]] = {
    "herd": run_herd_task,
    "chaos": run_chaos_task,
    "ha": run_ha_task,
    "elastic": run_elastic_task,
    "qos": run_qos_task,
    "txn": run_txn_task,
    "nemesis": run_nemesis_task,
    "figure": run_figure_task,
    "selftest": run_selftest_task,
}

#: metrics the gate compares by default, per task (others are informational)
HEADLINE_METRICS = {
    "herd": ("mops", "p50_us", "p99_us"),
    "chaos": ("ok", "completed"),
    "ha": (
        "ok",
        "availability",
        "failover_latency_us",
        "goodput_overhead_pct",
        "ops_lost",
    ),
    "elastic": (
        "ok",
        "tracking_ratio",
        "availability",
        "ops_lost",
        "migrations_done",
    ),
    "qos": (
        "ok",
        "goodput_ratio",
        "ops_lost",
        "p999_us",
    ),
    "txn": ("ok", "mops", "abort_rate", "p99_us"),
    "nemesis": (
        "ok",
        "violations",
        "planted_found",
        "planted_atoms",
        "planted_replay_identical",
    ),
    "figure": None,  # None = every figure cell is a headline metric
    "selftest": ("mops", "value"),
}


def headline(task: str, metrics: Dict[str, float]) -> Dict[str, float]:
    """The subset of ``metrics`` the gate compares for ``task``."""
    wanted = HEADLINE_METRICS.get(task)
    if wanted is None:
        return {k: v for k, v in metrics.items() if not k.startswith("obs/")}
    return {k: metrics[k] for k in wanted if k in metrics}
