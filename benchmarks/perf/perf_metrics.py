"""The metric catalogue: every name the host-time benchmark emits.

``BENCHMARK.json`` at the repo root is the contract the external driver
reads; this module is the same catalogue in Python, with one extra
column (``kind``) that the comparator needs.  ``tests/test_perf_catalogue.py``
fails when the two disagree.

Host time is wall clock on this machine; simulated time is modelled
nanoseconds.  A metric's ``kind`` says which it is:

* ``host``  — a host-time measurement; noisy, compared against a bound
  (end-to-end) or just reported (per-layer);
* ``count`` — a call count of a named ``repro`` function, taken from the
  traced pass; repeats exactly for a given seed;
* ``sim``   — a simulated-domain value read from the harness's own
  report; repeats exactly for a given seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    kind: str  # "host" | "count" | "sim"
    #: end-to-end only: the share of the baseline median by which the
    #: metric may worsen before a change counts as a regression
    bound: Optional[float] = None
    #: how the simulated-domain values of several units combine:
    #: "sum" or "mean" (counts come from one profile over all units)
    agg: str = "mean"


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "host", bound=0.25),
    Metric("sim_ops_per_host_s", "1/s", "higher", "host", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", "host", bound=0.10),
]

#: layers with a cProfile self-time column, in table order; the first
#: ten are ``src/repro`` packages, ``driver`` is this benchmark's own
#: frames (the ``kv_offline`` apply loops live there)
PROFILED_LAYERS = (
    "sim", "hw", "verbs", "herd", "kv", "workloads", "ha", "txn", "faults",
    "bench", "driver",
)
#: everything else cProfile sees: C builtins, stdlib + numpy, and the
#: ``repro`` packages without a column (obs, elastic, qos, ...)
OTHER_BUCKETS = ("builtins", "stdlib", "repro")


def _layer_columns() -> List[Metric]:
    out = []
    for layer in PROFILED_LAYERS:
        out.append(Metric("%s.self_s" % layer, "s", "lower", "host"))
        out.append(Metric("%s.self_share" % layer, "ratio", "lower", "host"))
    for bucket in OTHER_BUCKETS:
        out.append(Metric("other.%s_self_s" % bucket, "s", "lower", "host"))
        out.append(Metric("other.%s_self_share" % bucket, "ratio", "lower", "host"))
    return out


PER_LAYER: List[Metric] = _layer_columns() + [
    # -- driver: the repetition as a whole --------------------------------
    Metric("driver.run_wall_s", "s", "lower", "host"),
    Metric("driver.run_cpu_s", "s", "lower", "host"),
    Metric("driver.cpu_wall_ratio", "ratio", "higher", "host"),
    Metric("driver.sim_ms", "ms", "higher", "sim", agg="sum"),
    Metric("driver.host_s_per_sim_ms", "s/ms", "lower", "host"),
    Metric("driver.import_s", "s", "lower", "host"),
    Metric("driver.ref_loop_s", "s", "lower", "host"),
    Metric("driver.ref_loop_drift", "ratio", "lower", "host"),
    Metric("driver.trace_overhead_ratio", "ratio", "lower", "host"),
    Metric("driver.gc_gen2_collections", "count", "lower", "host"),
    Metric("driver.fingerprint_stable", "bool", "higher", "sim"),
    Metric("driver.failed_ops_share", "ratio", "lower", "sim"),
    Metric("driver.paper_err_pct", "%", "lower", "sim"),
    # -- sim: the event kernel ---------------------------------------------
    Metric("sim.events_scheduled", "count", "lower", "count"),
    Metric("sim.events_per_sim_op", "count", "lower", "count"),
    Metric("sim.events_per_host_s", "1/s", "higher", "host"),
    Metric("sim.host_ns_per_event", "ns", "lower", "host"),
    Metric("sim.process_resumes", "count", "lower", "count"),
    Metric("sim.fifo_serves", "count", "lower", "count"),
    Metric("sim.store_handoffs", "count", "lower", "count"),
    # -- hw: links, PCIe, NIC engines --------------------------------------
    Metric("hw.link_transmits", "count", "lower", "count"),
    Metric("hw.pcie_ops", "count", "lower", "count"),
    Metric("hw.util_pio", "ratio", "higher", "sim"),
    Metric("hw.util_dma", "ratio", "higher", "sim"),
    Metric("hw.util_nic_ingress", "ratio", "higher", "sim"),
    Metric("hw.util_nic_egress", "ratio", "higher", "sim"),
    Metric("hw.qp_cache_hit_rate", "ratio", "higher", "sim"),
    # -- verbs --------------------------------------------------------------
    Metric("verbs.post_sends", "count", "lower", "count"),
    Metric("verbs.post_recvs", "count", "lower", "count"),
    Metric("verbs.cq_pops", "count", "lower", "count"),
    Metric("verbs.post_sends_per_sim_op", "count", "lower", "count"),
    # -- herd ---------------------------------------------------------------
    Metric("herd.sim_mops", "Mops", "higher", "sim"),
    Metric("herd.sim_p50_us", "us", "lower", "sim"),
    Metric("herd.sim_p99_us", "us", "lower", "sim"),
    Metric("herd.noops", "count", "lower", "sim", agg="sum"),
    Metric("herd.retries", "count", "lower", "sim", agg="sum"),
    Metric("herd.get_misses", "count", "lower", "sim", agg="sum"),
    # -- kv -----------------------------------------------------------------
    Metric("kv.gets", "count", "lower", "count"),
    Metric("kv.puts", "count", "lower", "count"),
    Metric("kv.hit_ratio", "ratio", "higher", "sim"),
    Metric("kv.host_ops_per_s", "1/s", "higher", "host"),
    # -- workloads ----------------------------------------------------------
    Metric("workloads.ops_generated", "count", "lower", "count"),
    Metric("workloads.host_ops_per_s", "1/s", "higher", "host"),
    # -- ha -----------------------------------------------------------------
    Metric("ha.checker_self_s", "s", "lower", "host"),
    Metric("ha.checker_calls", "count", "lower", "count"),
    Metric("ha.updates_staged", "count", "lower", "count"),
    Metric("ha.availability", "ratio", "higher", "sim"),
    Metric("ha.failover_latency_us", "us", "lower", "sim"),
    Metric("ha.ops_lost", "count", "lower", "sim", agg="sum"),
    # -- txn ----------------------------------------------------------------
    Metric("txn.checker_self_s", "s", "lower", "host"),
    Metric("txn.commits", "count", "higher", "sim", agg="sum"),
    Metric("txn.aborts", "count", "lower", "sim", agg="sum"),
    Metric("txn.abort_rate", "ratio", "lower", "sim"),
    Metric("txn.sim_mtxn", "Mtxn/s", "higher", "sim"),
    # -- faults -------------------------------------------------------------
    Metric("faults.injected", "count", "lower", "sim", agg="sum"),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
