"""The chaos harness: seeded runs, invariants, and the CLI gate."""

import json

import pytest

from repro.bench.cli import main
from repro.faults import FaultPlan, run_chaos
from repro.herd import HerdConfig


# Short horizons keep each run in the low hundreds of milliseconds of
# wall clock while still exercising loss, duplication, and a crash.
HORIZON = 150_000.0


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_chaos_runs_end_green_across_seeds(seed):
    report = run_chaos(seed=seed, horizon_ns=HORIZON)
    assert report.ok, report.violations
    assert report.issued == report.completed + report.abandoned
    assert report.completed > 0
    assert report.fingerprint


def test_chaos_same_seed_reproduces_the_fingerprint():
    a = run_chaos(seed=11, horizon_ns=HORIZON)
    b = run_chaos(seed=11, horizon_ns=HORIZON)
    assert a.ok and b.ok
    assert a.fingerprint == b.fingerprint
    assert (a.issued, a.completed, a.retries) == (b.issued, b.completed, b.retries)
    assert a.fault_counts == b.fault_counts


def test_chaos_different_seeds_diverge():
    a = run_chaos(seed=1, horizon_ns=HORIZON)
    b = run_chaos(seed=2, horizon_ns=HORIZON)
    assert a.fingerprint != b.fingerprint


def test_chaos_with_a_crash_records_the_recovery():
    plan = (
        FaultPlan(seed=5)
        .drop(dst="server", rate=0.02)
        .crash_server(0, at_ns=40_000.0, down_ns=40_000.0)
    )
    report = run_chaos(seed=5, horizon_ns=HORIZON, plan=plan)
    assert report.ok, report.violations
    assert report.server_crashes == 1
    assert report.server_recoveries == 1


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_send_send_requests_lost_to_noise_and_a_crash_are_resent(seed, monkeypatch):
    """SEND requests over UD can be lost on the wire, dropped for want
    of a RECV, or popped by a server process that then crashes; the one
    retry path re-sends each, and every classic oracle holds.  Once the
    run has drained, every buffer of every server's RECV ring is posted
    exactly once: none leaked with the crash, none went up twice."""
    from repro.herd.region import RecvRing

    rings = []
    build = RecvRing.__init__

    def recorded(ring, *args):
        build(ring, *args)
        rings.append(ring)

    monkeypatch.setattr(RecvRing, "__init__", recorded)
    report = run_chaos(scenario="send-send", seed=seed, horizon_ns=HORIZON)
    assert report.ok, report.violations
    assert report.server_crashes == report.server_recoveries == 1
    assert report.fault_counts["link.drop"] > 0
    assert report.retries > 0
    assert report.completed == report.issued - report.abandoned > 0
    assert rings
    for ring in rings:
        posted = sorted(recv.wr_id for recv in ring.qp.recv_queue)
        assert posted == list(range(ring.depth))
        assert len(ring.inbox) == 0


def test_chaos_requires_retries():
    with pytest.raises(ValueError):
        run_chaos(config=HerdConfig(retry_timeout_ns=None))


def test_chaos_report_summary_mentions_the_verdict():
    report = run_chaos(seed=3, horizon_ns=HORIZON)
    text = report.summary()
    assert "OK" in text or "VIOLATED" in text
    assert str(report.issued) in text


def test_cli_chaos_smoke(capsys, tmp_path):
    metrics = tmp_path / "metrics.json"
    rc = main(
        [
            "--chaos",
            "--chaos-seed",
            "7",
            "--chaos-runs",
            "1",
            "--chaos-horizon",
            str(HORIZON),
            "--metrics",
            str(metrics),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos" in out.lower()
    # the injector's per-rule hit counts reach the metrics export
    runs = json.loads(metrics.read_text())["runs"]
    assert any(k.startswith("faults.") for r in runs for k in r.get("counters", {}))


def test_outcome_table_aligns_columns():
    from repro.bench.cli import _outcome_table

    rows = [
        {
            "scenario": "kill-primary",
            "seed": 7,
            "ops_acked": 930,
            "ops_lost": 0,
            "availability": 0.9907,
            "p999_us": 42.7,
            "checker": "linearizable",
            "verdict": "OK",
        },
        {
            "scenario": "randomized",
            "seed": 8,
            "ops_acked": 12,
            "ops_lost": 3,
            "availability": 1.0,
            "p999_us": 3.1,
            "checker": "n/a",
            "verdict": "FAILED",
        },
    ]
    table = _outcome_table(rows)
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == [
        "scenario", "seed", "acked", "lost", "availability", "p99.9_us",
        "checker", "verdict",
    ]
    # every row puts the verdict in the same column
    col = lines[0].index("verdict")
    assert lines[1][col:].strip() == "OK"
    assert lines[2][col:].strip() == "FAILED"


def test_cli_chaos_scenario_prints_the_outcome_table(capsys):
    rc = main(
        [
            "--chaos",
            "--chaos-seed",
            "11",
            "--chaos-runs",
            "1",
            "--chaos-scenario",
            "kill-primary",
            "--chaos-horizon",
            str(HORIZON),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # the per-scenario outcome table, plus the HA lines of the summary
    assert "scenario" in out and "verdict" in out
    assert "kill-primary" in out and "OK" in out


def test_chaos_fingerprint_is_pinned():
    """The seed-7 default-horizon fingerprint, pinned byte for byte.

    Re-pinned once, by the datapath fusion (docs/PERF.md, "Digests that
    moved"): every timestamp is bit-identical to the multi-hop chains,
    but a fused completion takes its sequence number at admission, so
    same-instant ties resolve in admission order.  The hash before that
    (71024d25...) dated from the first single-heap calendar and survived
    the sorted-run calendar that came and went in between.  If an engine
    change breaks this, it changed dispatch order — see
    tests/test_engine_calendar.py for the property it must keep.
    """
    report = run_chaos(seed=7)
    assert report.ok, report.violations
    assert report.fingerprint == (
        "425ec5c68bd8318f4addf05d760ef82ae21741719da26ac1677cfcc4965e3748"
    )


def _scenario_rows():
    """docs/FAULTS.md's scenario table, one row per SCENARIOS entry."""
    from repro.faults.chaos import SCENARIOS

    for name, entry in SCENARIOS.items():
        prepare = "`%s`" % entry.prepare.__name__ if entry.prepare else "—"
        drive = entry.drive.__name__
        if entry.membership is not None:
            drive += " + " + entry.membership.__name__
        yield "| %s |" % " | ".join(
            [
                "`%s`" % name if name else "*(none)*",
                "`%s`" % entry.build.__name__,
                "`%s`" % entry.config.__name__,
                prepare,
                "`%s`" % drive,
                "`%s`" % entry.plan.__name__,
                ", ".join(fn.__name__.replace("_oracle_", "") for fn in entry.oracles),
                ", ".join(
                    fn.__name__.replace("_section_", "") for fn in entry.fingerprint
                ),
                "`%s`" % entry.reference.__name__ if entry.reference else "—",
            ]
        )


def test_docs_scenario_table_matches_the_code():
    import pathlib

    doc = pathlib.Path(__file__).parent.parent / "docs" / "FAULTS.md"
    table = [
        line
        for line in doc.read_text().splitlines()
        if line.startswith("| ") and not line.startswith("| scenario")
    ]
    assert table == list(_scenario_rows())
