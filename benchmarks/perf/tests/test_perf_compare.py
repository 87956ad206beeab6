"""``run.py --compare`` on hand-made result files."""

import copy
import json

import perf_metrics
import run


def stat(median, lo=None, hi=None, unit="x"):
    return {"unit": unit, "median": median, "n": 3,
            "min": median if lo is None else lo, "max": median if hi is None else hi}


def result_file(ops=1000.0, ops_lo=None, ops_hi=None, rss=100.0, setup=0.5,
                fingerprint="f" * 64, events=5000.0, mops=25.0):
    return {"seed": 0, "quick": False, "workloads": {"herd_small_get": {
        "end_to_end": {
            "setup_s": stat(setup),
            "sim_ops_per_host_s": stat(ops, ops_lo, ops_hi),
            "peak_rss_mb": stat(rss),
        },
        "per_layer": {
            "sim.events_scheduled": {"value": events, "unit": "count"},
            "herd.sim_mops": {"value": mops, "unit": "Mops"},
            "sim.self_s": {"value": 1.0, "unit": "s"},
        },
        "sim_fingerprint": fingerprint,
    }}}


def status(rows, metric):
    (row,) = [r for r in rows if r[1] == metric]
    return row[2]


def test_identical_files_are_ok():
    rows = run.compare(result_file(), result_file())
    assert {r[2] for r in rows} == {"ok"}
    # host-time per-layer metrics are reported, never compared
    assert "sim.self_s" not in {r[1] for r in rows}


OPS_BOUND = perf_metrics.BY_NAME["sim_ops_per_host_s"].bound
RSS_BOUND = perf_metrics.BY_NAME["peak_rss_mb"].bound


def test_direction_and_bound():
    base = result_file(ops=1000.0, rss=100.0)

    def ops_status(factor):
        return status(run.compare(base, result_file(ops=1000.0 * factor)), "sim_ops_per_host_s")

    def rss_status(factor):
        return status(run.compare(base, result_file(rss=100.0 * factor)), "peak_rss_mb")

    # higher is better: slower by just under the bound passes, by just
    # over it regresses, and any speed-up passes
    assert ops_status(1 - OPS_BOUND + 0.01) == "ok"
    assert ops_status(1 - OPS_BOUND - 0.01) == "regressed"
    assert ops_status(2.0) == "ok"
    # lower is better
    assert rss_status(1 + RSS_BOUND - 0.01) == "ok"
    assert rss_status(1 + RSS_BOUND + 0.01) == "regressed"
    assert rss_status(0.5) == "ok"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = result_file(ops=900.0, ops_lo=900.0 * (1 - OPS_BOUND), ops_hi=1000.0)
    assert status(run.compare(result_file(), noisy), "sim_ops_per_host_s") == "unresolved"
    assert status(run.compare(noisy, result_file()), "sim_ops_per_host_s") == "unresolved"


def test_fingerprints_counts_and_sim_values_must_be_equal():
    base = result_file()
    assert status(run.compare(base, result_file(fingerprint="0" * 64)), "sim_fingerprint") == "mismatch"
    assert status(run.compare(base, result_file(events=5001.0)), "sim.events_scheduled") == "mismatch"
    assert status(run.compare(base, result_file(mops=25.01)), "herd.sim_mops") == "mismatch"
    missing = copy.deepcopy(base)
    del missing["workloads"]["herd_small_get"]["per_layer"]["herd.sim_mops"]
    assert status(run.compare(base, missing), "herd.sim_mops") == "mismatch"


def test_compare_mode_exit_code(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(result_file()))
    b.write_text(json.dumps(result_file(ops=990.0)))
    c.write_text(json.dumps(result_file(ops=500.0)))
    assert run.main(["--compare", str(a), str(b)]) == 0
    assert run.main(["--compare", str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "herd_small_get" in out
