"""``benchmarks/perf_pairs.py`` against stand-in trees.

The real thing runs ``benchmarks/perf/run.py`` for 12 s a side; here
each tree holds a stub ``run.py`` that prints a canned contract line,
and says ``disturbed`` on stderr while a marker file exists — enough to
check that a disturbed pair is run again once, that the second reading
is the one kept, and that the counts reach the report.
"""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_STUB_RUN_PY = """
import json, os, sys
runs = len(os.listdir("runs"))
open(os.path.join("runs", str(runs)), "w").close()
if os.path.exists("disturb"):
    os.remove("disturb")
    print("disturbed stub: reference loop drift 9.0%, cpu/wall 0.80", file=sys.stderr)
value = float(open("value").read()) + runs
print(json.dumps({
    "correct": True, "attempted": 10, "failed": 0,
    "metrics": {name: {"value": value, "unit": "x"}
                for name in ("setup_s", "sim_ops_per_host_s", "peak_rss_mb")},
}))
"""


@pytest.fixture
def perf_pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", os.path.join(REPO, "benchmarks", "perf_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for side, value in (("base", 100.0), ("change", 200.0)):
        tree = tmp_path / side
        (tree / "benchmarks" / "perf").mkdir(parents=True)
        (tree / "benchmarks" / "perf" / "run.py").write_text(_STUB_RUN_PY)
        (tree / "runs").mkdir()
        (tree / "value").write_text(repr(value))
    metrics = module.benchmark_contract()["end_to_end"]
    monkeypatch.setattr(module, "REPO", str(tmp_path / "change"))
    return module, tmp_path, metrics


def test_a_disturbed_pair_is_run_again_once_and_counted(perf_pairs, capsys):
    module, tmp_path, metrics = perf_pairs
    (tmp_path / "change" / "disturb").touch()  # the change side's first run
    rows = module.run_pairs(str(tmp_path / "base"), "stub", 2, metrics)
    # pair 1 ran twice (both sides), pair 2 once
    assert len(os.listdir(tmp_path / "base" / "runs")) == 3
    assert len(os.listdir(tmp_path / "change" / "runs")) == 3
    assert rows[0]["disturbed_first"] == ["change"] and "disturbed_first" not in rows[1]
    # the kept reading of pair 1 is the second one
    assert rows[0]["base"]["metrics"]["setup_s"]["value"] == 101.0
    assert rows[0]["change"]["metrics"]["setup_s"]["value"] == 201.0
    assert not rows[0]["change"]["disturbed"]
    captured = capsys.readouterr()
    assert "disturbed stub: reference loop drift" in captured.err  # relayed
    module.verdict_table({"stub": rows}, metrics)
    table = capsys.readouterr().out
    # pairs run again; per side: disturbed on the first attempt / in the kept reading
    assert table.splitlines()[-1].split() == ["stub", "1", "of", "2", "0", "/", "0", "1", "/", "0"]


def test_an_undisturbed_run_reports_zero_counts(perf_pairs, capsys):
    module, tmp_path, metrics = perf_pairs
    rows = module.run_pairs(str(tmp_path / "base"), "stub", 1, metrics)
    assert len(os.listdir(tmp_path / "change" / "runs")) == 1
    module.verdict_table({"stub": rows}, metrics)
    assert capsys.readouterr().out.splitlines()[-1].split()[:4] == ["stub", "0", "of", "1"]
