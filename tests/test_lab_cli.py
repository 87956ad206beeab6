"""End-to-end ``herd-lab`` CLI flows on a selftest sweep."""

import json

import pytest

from repro.lab import Axis, SweepSpec
from repro.lab.cli import main as lab_main


@pytest.fixture
def spec_file(tmp_path):
    spec = SweepSpec(
        name="clitest",
        task="selftest",
        axes=[Axis("value", [1.0, 2.0]), Axis("flavor", ["a", "b"])],
        description="cli fixture sweep",
    )
    path = tmp_path / "clitest.json"
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


def store_args(tmp_path):
    return ["--store", str(tmp_path / "labstore")]


def test_list_exits_zero(capsys):
    assert lab_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "smoke" in out and "chaos" in out and "selftest" in out


def test_no_command_prints_help(capsys):
    assert lab_main([]) == 0
    assert "herd-lab" in capsys.readouterr().out


def test_unknown_spec_exits_two(tmp_path, capsys):
    assert lab_main(["run", "no-such-sweep"] + store_args(tmp_path)) == 2
    assert "unknown spec" in capsys.readouterr().err


def test_run_show_baseline_gate_roundtrip(tmp_path, capsys, spec_file, monkeypatch):
    base = str(tmp_path / "base.json")
    bench = str(tmp_path / "BENCH_lab.json")

    assert lab_main(["run", spec_file, "--quiet"] + store_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "4 points (0 cached, 4 ran, 0 failed)" in out

    # second run: fully cached
    assert lab_main(["run", spec_file, "--quiet", "--workers", "2"]
                    + store_args(tmp_path)) == 0
    assert "(4 cached, 0 ran, 0 failed)" in capsys.readouterr().out

    assert lab_main(["show", spec_file] + store_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "4 stored points" in out and "mops=" in out

    assert lab_main(["baseline", spec_file, "--out", base] + store_args(tmp_path)) == 0
    capsys.readouterr()

    # without --bench-json the gate writes no snapshot
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert lab_main(["gate", spec_file, "--baseline", base] + store_args(tmp_path)) == 0
    assert "wrote" not in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == before

    assert lab_main(
        ["gate", spec_file, "--baseline", base, "--bench-json", bench]
        + store_args(tmp_path)
    ) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    payload = json.loads(open(bench).read())
    assert payload["pass"] is True and payload["version"] == 2
    assert payload["specs"]["clitest"]["spec"] == "clitest"

    # perturb one stored metric beyond tolerance: the gate must fail
    perturbed = json.load(open(base))
    label = sorted(perturbed["points"])[0]
    perturbed["points"][label]["mops"] *= 2.0
    bad = str(tmp_path / "bad.json")
    json.dump(perturbed, open(bad, "w"))
    assert lab_main(
        ["gate", spec_file, "--baseline", bad, "--bench-json", bench]
        + store_args(tmp_path)
    ) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "REGRESSED" in out
    assert json.loads(open(bench).read())["pass"] is False


def test_show_without_results_exits_one(tmp_path, capsys, spec_file):
    assert lab_main(["show", spec_file] + store_args(tmp_path)) == 1
    assert "no results" in capsys.readouterr().err


def test_baseline_without_results_exits_one(tmp_path, capsys, spec_file):
    out = str(tmp_path / "base.json")
    assert lab_main(["baseline", spec_file, "--out", out] + store_args(tmp_path)) == 1
    assert "run `herd-lab run" in capsys.readouterr().err


def test_gate_with_missing_baseline_exits_two(tmp_path, capsys, spec_file):
    assert lab_main(
        ["gate", spec_file, "--baseline", str(tmp_path / "nope.json")]
        + store_args(tmp_path)
    ) == 2
    assert "cannot load baseline" in capsys.readouterr().err


def test_run_reports_failures_and_exits_one(tmp_path, capsys):
    spec = SweepSpec(
        name="failing", task="selftest", axes=[Axis("behavior", ["ok", "raise"])]
    )
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert lab_main(["run", str(path), "--quiet"] + store_args(tmp_path)) == 1
    captured = capsys.readouterr()
    assert "1 failed" in captured.out
    assert "RuntimeError" in captured.err
