"""The six workloads of the host-time benchmark.

A workload is a stream of fixed-size *units*.  Unit ``i`` of a run with
``--seed S`` draws everything random from
``derive_seed(S, "<workload>.<i>")``, so it is the same simulated work on
every machine and every commit; how many units fit into the measured
seconds is the only thing host speed decides.  One unit is sized for
roughly 1.2–3.1 host seconds on the 2-core box the sizes were probed on
(``quick`` cuts that to a fraction of a second for the tests).

Each unit goes through the same phases, which the driver wraps in spans:
``generate_inputs`` → ``build`` → ``preload`` → ``run`` (the only timed
phase; one child span per cell) → ``check``.  Where the public entry
point builds its own cluster (``run_chaos``, ``run_txn``,
``inbound_throughput``) that build is inside ``run``.

The simulated clients are closed-loop everywhere: each keeps a fixed
window of requests outstanding and issues the next only when one
completes, so a slower simulator never changes the simulated load.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, ContextManager, Dict, List, Optional

#: ``cell(label)`` opens a child span of the current ``run`` span
CellSpan = Callable[[str], ContextManager[Any]]


class Unit:
    """What one unit did, as far as the benchmark is concerned."""

    def __init__(
        self,
        ops: int,
        attempted: int,
        failed: int,
        detail: Any,
        layer: Dict[str, float],
        problems: List[str],
    ) -> None:
        #: completed simulated operations: the numerator of
        #: ``sim_ops_per_host_s``
        self.ops = ops
        self.attempted = attempted
        self.failed = failed
        #: deterministic results, hashed into ``sim_fingerprint``
        self.detail = detail
        #: simulated-domain per-layer values (``perf_metrics`` names)
        self.layer = layer
        #: human-readable reasons for every failed check
        self.problems = problems


class Workload:
    """Phase hooks; the defaults suit entry points that build in ``run``."""

    name = ""
    #: one sentence: why this workload is in the basket
    why = ""
    #: distinct units per repetition.  A timed repetition cycles through
    #: them until its seconds are up and keeps each unit's fastest run;
    #: the traced one runs each once plain and once under cProfile.
    units = 2

    def generate(self, seed: int, quick: bool) -> Any:
        raise NotImplementedError

    def build(self, inputs: Any) -> Any:
        return None

    def preload(self, state: Any, inputs: Any) -> None:
        return None

    def run(self, state: Any, inputs: Any, cell: CellSpan) -> Any:
        raise NotImplementedError

    def check(self, state: Any, inputs: Any, raw: Any) -> Unit:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# herd_small_get / herd_large_put
# ---------------------------------------------------------------------------


class _Herd(Workload):
    """A full ``HerdCluster``: Apt profile, 6 server processes, 51
    closed-loop clients on 17 machines, window 4, 4096 preloaded keys."""

    N_KEYS = 4096
    WARMUP_NS = 50_000.0

    def __init__(self, get_fraction: float, value_size: int, distribution: str,
                 log_bytes: int, measure_ns: float, mops_band, paper_mops) -> None:
        from repro.herd.cluster import HerdCluster
        from repro.herd.config import HerdConfig
        from repro.workloads.ycsb import Workload as Ycsb

        self._HerdCluster = HerdCluster
        self._config = HerdConfig(n_server_processes=6, window=4, log_bytes=log_bytes)
        self._ycsb = Ycsb(
            get_fraction=get_fraction, value_size=value_size,
            n_keys=self.N_KEYS, distribution=distribution,
        )
        self._measure_ns = measure_ns
        self._band = mops_band
        self._paper_mops = paper_mops

    def generate(self, seed, quick):
        return {
            "seed": seed,
            "measure_ns": self._measure_ns / (16 if quick else 1),
        }

    def build(self, inputs):
        cluster = self._HerdCluster(self._config, n_client_machines=17, seed=inputs["seed"])
        cluster.add_clients(51, self._ycsb)
        cluster.wire()
        return cluster

    def preload(self, cluster, inputs):
        cluster.preload(range(self.N_KEYS), self._ycsb.value_size)

    def run(self, cluster, inputs, cell):
        return cluster.run(self.WARMUP_NS, inputs["measure_ns"])

    def check(self, cluster, inputs, result):
        extra = result.extra
        problems = []
        for name in ("get_misses", "retries", "abandoned"):
            if extra[name] != 0:
                problems.append("%s = %d, expected 0" % (name, extra[name]))
        lo, hi = self._band
        if not lo <= result.mops <= hi:
            problems.append(
                "simulated throughput %.2f Mops outside [%.1f, %.1f]"
                % (result.mops, lo, hi)
            )
        attempted = result.ops + int(extra["abandoned"])
        # a unit whose check fails counts every one of its ops as failed
        failed = attempted if problems else 0
        stores = [server.store for server in cluster.servers]
        hits = sum(s.hits for s in stores)
        lookups = hits + sum(s.misses for s in stores)
        layer = {
            "driver.sim_ms": (self.WARMUP_NS + inputs["measure_ns"]) / 1e6,
            "hw.util_pio": extra["util_pio"],
            "hw.util_dma": extra["util_dma"],
            "hw.util_nic_ingress": extra["util_nic_ingress"],
            "hw.util_nic_egress": extra["util_nic_egress"],
            "hw.qp_cache_hit_rate": extra["server_qp_cache_hit_rate"],
            "herd.sim_mops": result.mops,
            "herd.sim_p50_us": result.latency["p50_us"],
            "herd.sim_p99_us": result.latency["p99_us"],
            "herd.noops": extra["noops"],
            "herd.retries": extra["retries"],
            "herd.get_misses": extra["get_misses"],
            "kv.hit_ratio": hits / lookups if lookups else 0.0,
        }
        if self._paper_mops is not None:
            layer["driver.paper_err_pct"] = (
                100.0 * abs(result.mops - self._paper_mops) / self._paper_mops
            )
        detail = {
            "ops": result.ops,
            "mops": result.mops,
            "latency": result.latency,
            "per_server_mops": result.per_server_mops,
            "extra": extra,
        }
        return Unit(result.ops, attempted, failed, detail, layer, problems)


class HerdSmallGet(_Herd):
    name = "herd_small_get"
    why = ("the paper's headline cell (95% GET, 32 B, uniform): sim+hw+verbs+herd "
           "all on the path, inlined small packets, per-packet cost dominates")

    def __init__(self) -> None:
        # EXPERIMENTS.md: paper 26 Mops, full-scale run 24.9; the band is
        # the paper's number -10 %/+5 %
        super().__init__(0.95, 32, "uniform", 1 << 22, 400_000.0, (23.4, 27.3), 26.0)


class HerdLargePut(_Herd):
    name = "herd_large_put"
    why = ("same cluster, 50% PUT of 1000 B values, Zipf .99: un-inlined DMA "
           "responses, log appends and byte copies; the peak_rss_mb stress")

    def __init__(self) -> None:
        # no paper number for this mix ("unvalidated"); the band only
        # brackets Figure 10's 1 KB regime (5.2 Mops at 5% PUT)
        super().__init__(0.50, 1000, "zipfian", 1 << 24, 1_500_000.0, (4.5, 7.5), None)


# ---------------------------------------------------------------------------
# verbs_grid
# ---------------------------------------------------------------------------


class VerbsGrid(Workload):
    name = "verbs_grid"
    why = ("raw verbs microbenchmarks, no herd/kv/workloads code: sim+hw+verbs are "
           "nearly all of it, so datapath fusion shows largest here")
    units = 1

    #: (direction, verb, transport, payload) -> the paper's Mops, for the
    #: cells EXPERIMENTS.md gives a paper number for (Figures 3 and 4)
    CELLS = {
        ("in", "WRITE", "UC", 32): 35.0,
        ("in", "WRITE", "UC", 256): None,
        ("in", "WRITE", "UC", 1024): None,
        ("in", "READ", "RC", 32): 26.0,
        ("in", "READ", "RC", 256): None,
        ("in", "READ", "RC", 1024): None,
        ("out", "WR-INLINE", "UC", 32): None,
        ("out", "WR-INLINE", "UC", 256): None,
        ("out", "SEND-UD", "UD", 32): None,
        ("out", "SEND-UD", "UD", 256): None,
        ("out", "READ-RC", "RC", 32): 22.0,
        ("out", "READ-RC", "RC", 256): None,
    }
    #: the microbenchmarks' fixed windows (repro.bench.microbench)
    WARM_US = 40.0
    MEASURE_US = 160.0

    def __init__(self) -> None:
        from repro.bench.microbench import inbound_throughput, outbound_throughput
        from repro.verbs import Transport

        self._inbound = inbound_throughput
        self._outbound = outbound_throughput
        self._transport = Transport

    def generate(self, seed, quick):
        # The microbenchmarks draw nothing random and take no seed, so
        # every seed gives this same grid, in this order (shuffling it
        # moved peak RSS by 10 %: it changes when the collector runs).
        # quick keeps the three cells the paper gives a number for.
        return [c for c in self.CELLS if not quick or self.CELLS[c] is not None]

    def run(self, state, cells, cell):
        mops = {}
        for key in cells:
            direction, verb, transport, payload = key
            with cell("%s-%s-%s-%d" % key):
                if direction == "in":
                    mops[key] = self._inbound(verb, self._transport[transport], payload)
                else:
                    mops[key] = self._outbound(verb, payload)
        return mops

    def check(self, state, cells, mops):
        problems = []
        ops = failed = 0
        errors = []
        for key in cells:
            cell_ops = int(round(mops[key] * self.MEASURE_US))
            ops += cell_ops
            paper = self.CELLS[key]
            if paper is None:
                continue
            err = abs(mops[key] - paper) / paper
            errors.append(err)
            if err > 0.10:
                failed += cell_ops
                problems.append(
                    "%s-%s-%s-%d: %.2f Mops, paper %.1f" % (key + (mops[key], paper))
                )
        sim_us = len(cells) * (self.WARM_US + self.MEASURE_US)
        layer = {
            "driver.sim_ms": sim_us / 1e3,
            "driver.paper_err_pct": 100.0 * sum(errors) / len(errors),
        }
        detail = sorted(("%s-%s-%s-%d" % key, mops[key]) for key in cells)
        return Unit(ops, ops, failed, detail, layer, problems)


# ---------------------------------------------------------------------------
# ha_kill_primary
# ---------------------------------------------------------------------------


class HaKillPrimary(Workload):
    name = "ha_kill_primary"
    why = ("the only workload where ha (replication mesh, lease heartbeats, "
           "Wing-Gong checker) and faults do work; most events per op")
    #: events per op differ by +-7 % from one chaos seed to the next
    #: (retry and drain timing), so average over more distinct units
    units = 5

    HORIZON_NS = 300_000.0  # run_chaos's default

    def __init__(self) -> None:
        from repro.faults.chaos import run_chaos
        from repro.faults.plan import FaultPlan
        from repro.faults.rng import child_rng

        self._run_chaos = run_chaos
        self._FaultPlan = FaultPlan
        self._child_rng = child_rng

    def generate(self, seed, quick):
        horizon = self.HORIZON_NS / (3 if quick else 1)
        # kill-primary's pinned fault, on a seed-chosen partition.  The
        # driver writes the plan itself: FaultPlan.randomized's
        # background noise makes host time per op vary +-28 % from seed
        # to seed, and some seeds take minutes to drain (README).
        plan = self._FaultPlan(seed=seed)
        plan.crash_server(
            self._child_rng(seed, "victim").randrange(4),
            at_ns=0.35 * horizon, down_ns=0.3 * horizon,
        )
        return {"seed": seed, "horizon_ns": horizon, "plan": plan}

    def run(self, state, inputs, cell):
        return self._run_chaos(
            seed=inputs["seed"], scenario="kill-primary",
            horizon_ns=inputs["horizon_ns"], plan=inputs["plan"],
        )

    def check(self, state, inputs, report):
        problems = list(report.violations)
        if report.checker != "linearizable":
            problems.append("checker verdict %r" % report.checker)
        if report.ops_lost:
            problems.append("%d acked writes lost" % report.ops_lost)
        failed = report.abandoned + report.ops_lost
        if problems:
            failed = report.issued
        layer = {
            "driver.sim_ms": report.sim_ns / 1e6,
            "herd.retries": report.retries,
            "herd.get_misses": report.get_misses,
            "ha.availability": report.availability,
            "ha.failover_latency_us": report.failover_latency_ns / 1e3,
            "ha.ops_lost": report.ops_lost,
            "faults.injected": sum(report.fault_counts.values()),
        }
        return Unit(report.completed, report.issued, failed, report.fingerprint,
                    layer, problems)


# ---------------------------------------------------------------------------
# txn_contended
# ---------------------------------------------------------------------------


class TxnContended(Workload):
    name = "txn_contended"
    why = ("txn client/server, verbs atomics and the strict-serializability "
           "checker do work here and nowhere else")
    units = 3

    #: both commit dataplanes, uncontended and hot.  hot_fraction 0.5 is
    #: left out: on rpc, check_serializable's search has a heavy tail
    #: there (README, "Sizing limits"), and one such cell would decide
    #: the whole repetition's time and memory.
    CONFIGS = [(dp, hot) for dp in ("rpc", "onesided") for hot in (0.0, 0.9)]
    SEEDS_PER_CONFIG = 3
    WARMUP_NS = 20_000.0  # TxnCluster.run's default
    MEASURE_NS = 150_000.0  # run_txn's default

    def __init__(self) -> None:
        from repro.bench.figures import run_txn
        from repro.faults.rng import derive_seed

        self._run_txn = run_txn
        self._derive_seed = derive_seed

    def generate(self, seed, quick):
        cells = [
            (dataplane, hot, self._derive_seed(seed, "cell.%d" % i))
            for i in range(1 if quick else self.SEEDS_PER_CONFIG)
            for dataplane, hot in self.CONFIGS
        ]
        return {"cells": cells, "measure_ns": self.MEASURE_NS / (3 if quick else 1)}

    def run(self, state, inputs, cell):
        reports = []
        for i, (dataplane, hot, seed) in enumerate(inputs["cells"]):
            with cell("%s-hot%.1f-%d" % (dataplane, hot, i // len(self.CONFIGS))):
                reports.append(self._run_txn(
                    dataplane=dataplane, hot_fraction=hot,
                    measure_ns=inputs["measure_ns"], seed=seed,
                ))
        return reports

    def check(self, state, inputs, reports):
        problems = []
        commits = aborts = failed = 0
        for (dataplane, hot, _seed), report in zip(inputs["cells"], reports):
            commits += report.commits
            aborts += report.aborts
            if not report.ok:
                failed += report.commits + report.aborts
                problems.append(
                    "%s hot %.1f: violation=%r torn_writes=%d"
                    % (dataplane, hot, report.violation, report.torn_writes)
                )
        # aborts under contention are the protocol working, not failures
        attempted = commits + aborts
        sim_ns = len(reports) * (self.WARMUP_NS + inputs["measure_ns"])
        layer = {
            "driver.sim_ms": sim_ns / 1e6,
            "txn.commits": commits,
            "txn.aborts": aborts,
            "txn.abort_rate": aborts / attempted if attempted else 0.0,
            "txn.sim_mtxn": sum(r.result.mops for r in reports) / len(reports),
        }
        detail = [r.fingerprint for r in reports]
        return Unit(commits, attempted, failed, detail, layer, problems)


# ---------------------------------------------------------------------------
# kv_offline
# ---------------------------------------------------------------------------


class KvOffline(Workload):
    name = "kv_offline"
    why = ("workload draws applied to the three KV indexes with no simulator: a "
           "kernel or datapath change predicts no change here")

    N_DRAWS = 100_000
    N_KEYS = 1 << 16
    VALUE_SIZE = 32

    def __init__(self) -> None:
        from repro.kv import CuckooTable, HopscotchTable, MicaCache
        from repro.workloads.ycsb import Workload as Ycsb

        self._ycsb = Ycsb(
            get_fraction=0.5, value_size=self.VALUE_SIZE,
            n_keys=self.N_KEYS, distribution="zipfian",
        )
        # Sized so that nothing is evicted, displaced out or rejected:
        # every GET must agree with a dict.
        self._tables = {
            "mica": lambda: MicaCache(index_entries=1 << 20, log_bytes=1 << 23),
            "cuckoo": lambda: CuckooTable(n_buckets=1 << 18, extent_bytes=1 << 23),
            "hopscotch": lambda: HopscotchTable(n_slots=1 << 18, value_capacity=64),
        }

    def generate(self, seed, quick):
        return {"seed": seed, "draws": self.N_DRAWS // (10 if quick else 1)}

    def build(self, inputs):
        return {name: make() for name, make in self._tables.items()}

    def run(self, tables, inputs, cell):
        with cell("generate") as generate_span:
            next_op = self._ycsb.stream(inputs["seed"]).next_op
            ops = [next_op() for _ in range(inputs["draws"])]
        answers = {}
        apply_s = 0.0
        for name, table in tables.items():
            with cell(name) as apply_span:
                get, put = table.get, table.put
                out = []
                for op in ops:
                    if op.value is None:
                        out.append(get(op.key))
                    else:
                        put(op.key, op.value)
                answers[name] = out
            apply_s += apply_span.duration
        return ops, answers, generate_span.duration, apply_s

    def check(self, tables, inputs, raw):
        ops, answers, generate_s, apply_s = raw
        oracle: Dict[bytes, bytes] = {}
        expected: List[Optional[bytes]] = []
        for op in ops:
            if op.value is None:
                expected.append(oracle.get(op.key))
            else:
                oracle[op.key] = op.value
        problems = []
        failed = 0
        digest = hashlib.sha256()
        for name, out in answers.items():
            wrong = sum(1 for got, want in zip(out, expected) if got != want)
            if wrong or len(out) != len(expected):
                failed += wrong + abs(len(out) - len(expected))
                problems.append("%s: %d GETs disagree with the dict oracle" % (name, wrong))
            for value in out:
                digest.update(b"-" if value is None else value)
        executed = len(ops) * len(answers)
        mica = tables["mica"]
        layer = {
            "kv.hit_ratio": mica.hits / max(1, mica.hits + mica.misses),
            "kv.host_ops_per_s": executed / apply_s,
            "workloads.host_ops_per_s": len(ops) / generate_s,
        }
        return Unit(executed, executed, failed, digest.hexdigest(), layer, problems)


WORKLOADS = {
    cls.name: cls
    for cls in (HerdSmallGet, HerdLargePut, VerbsGrid, HaKillPrimary, TxnContended, KvOffline)
}
