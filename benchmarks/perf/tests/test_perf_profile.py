"""The span recorder and the cProfile bucketer, on synthetic inputs."""

import os

import pytest

import perf_trace
from perf_metrics import OTHER_BUCKETS, PROFILED_LAYERS


def repro(rel):
    return os.path.join(perf_trace.REPRO_DIR, *rel.split("/"))


def stat(ncalls, tottime, cumtime=None):
    return (ncalls, ncalls, tottime, tottime if cumtime is None else cumtime, {})


SYNTHETIC = {
    (repro("sim/engine.py"), 323, "timeout"): stat(1000, 2.0),
    (repro("sim/engine.py"), 299, "_schedule"): stat(500, 1.0),
    (repro("sim/resources.py"), 151, "put"): stat(70, 0.5),
    (repro("hw/pcie.py"), 44, "pio_write"): stat(30, 0.25),
    (repro("hw/pcie.py"), 70, "dma_write"): stat(20, 0.25),
    (repro("verbs/device.py"), 205, "post_send"): stat(40, 1.0),
    (repro("kv/mica.py"), 129, "get"): stat(7, 0.5),
    (repro("kv/cuckoo.py"), 170, "get"): stat(5, 0.5),
    # same function name in a package that is not counted
    (repro("herd/server.py"), 10, "get"): stat(99, 0.5),
    # the linearizability checker is ha's, the serializability one txn's
    (repro("ha/checker.py"), 151, "check_histories"): stat(2, 0.25, 0.75),
    (repro("ha/checker.py"), 250, "check_serializable"): stat(3, 0.5, 1.5),
    (repro("ha/checker.py"), 341, "search"): stat(9, 0.25),
    (repro("obs/registry.py"), 5, "inc"): stat(11, 0.25),
    ("~", 0, "<built-in method _heapq.heappush>"): stat(800, 1.0),
    ("/usr/lib/python3.11/random.py", 1, "random"): stat(4, 0.5),
    (os.path.join(os.path.dirname(perf_trace.__file__), "perf_workloads.py"), 1, "run"):
        stat(1, 0.25),
}
TXN_LINES = [(250, 425)]


def test_self_time_is_booked_by_source_path():
    out = perf_trace.bucket_profile(SYNTHETIC, TXN_LINES)
    assert out["sim.self_s"] == 3.5
    assert out["hw.self_s"] == 0.5
    assert out["verbs.self_s"] == 1.0
    assert out["kv.self_s"] == 1.0
    assert out["herd.self_s"] == 0.5
    assert out["ha.self_s"] == 0.25
    assert out["txn.self_s"] == 0.75  # check_serializable + its nested search
    assert out["driver.self_s"] == 0.25
    assert out["other.builtins_self_s"] == 1.0
    assert out["other.stdlib_self_s"] == 0.5
    assert out["other.repro_self_s"] == 0.25  # repro.obs has no column
    assert out["faults.self_s"] == 0.0


def test_shares_sum_to_one():
    out = perf_trace.bucket_profile(SYNTHETIC, TXN_LINES)
    shares = [out["%s.self_share" % layer] for layer in PROFILED_LAYERS]
    shares += [out["other.%s_self_share" % bucket] for bucket in OTHER_BUCKETS]
    assert sum(shares) == pytest.approx(1.0)
    assert out["sim.self_share"] == pytest.approx(3.5 / 9.5)


def test_counts_and_cumulative_times():
    out = perf_trace.bucket_profile(SYNTHETIC, TXN_LINES)
    assert out["sim.events_scheduled"] == 1500
    assert out["sim.store_handoffs"] == 70
    assert out["hw.pcie_ops"] == 50
    assert out["verbs.post_sends"] == 40
    assert out["kv.gets"] == 12  # herd/server.py's get is not a KV get
    assert out["kv.puts"] == 0
    assert out["ha.checker_calls"] == 2
    assert out["ha.checker_self_s"] == 0.75
    assert out["txn.checker_self_s"] == 1.5


def test_without_the_txn_line_ranges_the_checker_stays_in_ha():
    out = perf_trace.bucket_profile(SYNTHETIC)
    assert out["ha.self_s"] == 1.0
    assert out["txn.self_s"] == 0.0


def test_span_self_time_and_chrome_trace():
    rec = perf_trace.SpanRecorder("demo")
    rec.unit = 0
    with rec.span("run") as outer:
        with rec.span("cell", "a") as a:
            pass
        with rec.span("cell", "b") as b:
            pass
    assert a.parent == outer.id and b.parent == outer.id and outer.parent is None
    assert rec.self_time(outer) == pytest.approx(
        outer.duration - a.duration - b.duration
    )
    events = rec.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["run", "cell:a", "cell:b"]
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        assert event["args"]["workload"] == "demo" and event["args"]["unit"] == 0
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]
