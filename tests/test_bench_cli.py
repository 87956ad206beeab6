"""CLI regression tests: up-front validation, ``all`` expansion, and
the ``--metrics`` / ``--trace`` export flags."""

import json

import pytest

from repro.bench import cli
from repro.bench.report import FigureData, Series
from repro.sim import FifoServer, Simulator


def fake_figure(scale="bench"):
    sim = Simulator()
    FifoServer(sim, "unit").serve(5.0)
    sim.run_until_idle()
    return FigureData(
        exp_id="figx",
        title="fake",
        x_label="x",
        y_label="y",
        series=[Series("s", [(1, 2.0)])],
    )


# ---------------------------------------------------------------------------
# experiment-id resolution
# ---------------------------------------------------------------------------


def test_unknown_id_rejected_before_any_work(monkeypatch, capsys):
    """Pre-fix, ``herd-bench fig5 fig99`` ran fig5 (minutes of sweep)
    and only then exited 2."""
    ran = []
    monkeypatch.setitem(cli.FIGURES, "fig5", lambda scale: ran.append(scale))
    assert cli.main(["fig5", "fig99"]) == 2
    assert ran == []
    assert "fig99" in capsys.readouterr().err


def test_resolve_names_every_unknown_id():
    with pytest.raises(ValueError) as excinfo:
        cli.resolve_experiments(["fig99", "fig2", "bogus"])
    assert "'fig99'" in str(excinfo.value)
    assert "'bogus'" in str(excinfo.value)


def test_resolve_expands_all_anywhere():
    """``all`` used to be honoured only as the sole argument."""
    everything = sorted(cli.TABLES) + sorted(cli.FIGURES)
    assert cli.resolve_experiments(["all"]) == everything
    mixed = cli.resolve_experiments(["table1", "all"])
    assert mixed == ["table1"] + [e for e in everything if e != "table1"]
    assert len(mixed) == len(set(mixed))


# ---------------------------------------------------------------------------
# --metrics / --trace export
# ---------------------------------------------------------------------------


def test_metrics_and_trace_flags_write_valid_json(monkeypatch, tmp_path):
    monkeypatch.setitem(cli.FIGURES, "figx", fake_figure)
    m_path = tmp_path / "m.json"
    t_path = tmp_path / "t.json"
    rc = cli.main(["figx", "--metrics", str(m_path), "--trace", str(t_path)])
    assert rc == 0

    metrics = json.loads(m_path.read_text())
    assert metrics["version"] == 1
    (run,) = metrics["runs"]
    assert run["experiment"] == "figx"
    station = run["stations"]["unit"]
    assert station["jobs"] == 1
    assert station["queue_delay_ns"]["count"] == 1

    trace = json.loads(t_path.read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_a_real_figure_exports_station_metrics_and_spans(tmp_path):
    # the smallest real figure, full observability on: every run it
    # makes carries station metrics, and the trace holds complete spans
    m_path = tmp_path / "m.json"
    t_path = tmp_path / "t.json"
    assert cli.main(["fig2", "--metrics", str(m_path), "--trace", str(t_path)]) == 0
    runs = json.loads(m_path.read_text())["runs"]
    assert runs and all(run["stations"] for run in runs)
    trace = json.loads(t_path.read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_trace_jsonl_suffix_writes_json_lines(monkeypatch, tmp_path):
    monkeypatch.setitem(cli.FIGURES, "figx", fake_figure)
    t_path = tmp_path / "t.jsonl"
    assert cli.main(["figx", "--trace", str(t_path)]) == 0
    lines = [json.loads(line) for line in t_path.read_text().splitlines()]
    assert lines and lines[0]["station"] == "unit"
    assert lines[0]["run"] == "figx#0"


def test_unwritable_output_path_fails_before_any_work(monkeypatch, capsys, tmp_path):
    ran = []
    monkeypatch.setitem(cli.FIGURES, "figx", lambda scale: ran.append(scale))
    bad = str(tmp_path / "no" / "such" / "dir" / "m.json")
    assert cli.main(["figx", "--metrics", bad]) == 2
    assert ran == []
    assert "cannot write" in capsys.readouterr().err


def test_no_flags_leaves_simulators_uninstrumented(monkeypatch):
    seen = []
    monkeypatch.setitem(
        cli.FIGURES,
        "figx",
        lambda scale: (seen.append(Simulator()), fake_figure(scale))[1],
    )
    assert cli.main(["figx"]) == 0
    assert not hasattr(seen[0], "metrics")
    assert not hasattr(seen[0], "tracer")


# ---------------------------------------------------------------------------
# txn experiments
# ---------------------------------------------------------------------------


def test_txn_experiments_listed(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "figtxn" in out
    assert "figtxnq" in out


def test_chaos_scenario_list_names_both_txn_entries(capsys):
    assert cli.main(["--chaos", "--chaos-scenario", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("txn-rpc", "txn-onesided"):
        assert any(line.split()[:1] == [name] for line in lines), name


def test_run_txn_rejects_unknown_dataplane_naming_the_choices():
    from repro.bench.figures import run_txn

    with pytest.raises(ValueError) as excinfo:
        run_txn(dataplane="dcqcn")
    message = str(excinfo.value)
    assert "dcqcn" in message
    assert "rpc" in message and "onesided" in message
