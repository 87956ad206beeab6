"""The nemesis: schedule generation, oracles, shrinking, artifacts, search.

The contract under test: every schedule is byte-for-byte reproducible
from its seed, a healthy tree survives any generated schedule, the
planted-bug arm proves the find -> shrink -> artifact -> replay path
works end to end, and a frozen artifact replays byte-identically.
"""

import dataclasses
import json

import pytest

from repro.faults import FaultPlan
from repro.faults.rng import derive_seed
from repro.nemesis import (
    DATAPLANE_NAMES,
    DATAPLANES,
    Schedule,
    atoms_of,
    build_artifact,
    generate,
    load_artifact,
    plan_from_atoms,
    replay,
    resolve,
    run_schedule,
    save_artifact,
    search,
    shrink_schedule,
)


# ---------------------------------------------------------------------------
# Schedule generation
# ---------------------------------------------------------------------------


def test_generate_is_deterministic_per_seed_and_dataplane():
    a = generate(seed=42, dataplane="herd")
    b = generate(seed=42, dataplane="herd")
    assert a.plan.to_dict() == b.plan.to_dict()
    assert a.dataplane == b.dataplane == "herd"
    c = generate(seed=43, dataplane="herd")
    assert c.plan.to_dict() != a.plan.to_dict()


def test_generate_draws_a_nonempty_plan_within_the_horizon():
    for name in DATAPLANE_NAMES:
        schedule = generate(seed=9, dataplane=name)
        atoms = atoms_of(schedule.plan)
        assert 1 <= len(atoms) <= 6
        horizon = schedule.horizon_ns
        for rule in schedule.plan.link_rules:
            assert rule.end_ns <= horizon
        for crash in schedule.plan.crashes:
            assert crash.at_ns < horizon
            assert 0 <= crash.server_index < DATAPLANES[name].n_servers


def test_generate_respects_the_dataplane_crash_budget():
    # qos forbids crashes (the flash crowd is the fault); over many
    # seeds no qos schedule may contain one, and no dataplane may
    # exceed its max_crashes.
    for seed in range(40):
        for name in DATAPLANE_NAMES:
            schedule = generate(seed=seed, dataplane=name)
            assert len(schedule.plan.crashes) <= DATAPLANES[name].max_crashes
    assert DATAPLANES["qos"].max_crashes == 0


def test_generate_plan_seed_is_a_named_child():
    schedule = generate(seed=5, dataplane="herd")
    assert schedule.plan.seed == derive_seed(5, "nemesis.plan")


def test_exclude_moves_filters_the_vocabulary(monkeypatch):
    spec = DATAPLANES["herd"]
    no_crash = dataclasses.replace(
        spec, exclude_moves=("crash", "flap", "qp_error")
    )
    monkeypatch.setitem(DATAPLANES, "herd", no_crash)
    for seed in range(30):
        plan = generate(seed=seed, dataplane="herd").plan
        assert not plan.crashes
        assert not plan.flaps
        assert not plan.qp_errors


def test_unknown_exclude_moves_fail_loudly(monkeypatch):
    spec = DATAPLANES["herd"]
    monkeypatch.setitem(
        DATAPLANES, "herd", dataclasses.replace(spec, exclude_moves=("nope",))
    )
    with pytest.raises(ValueError, match="nope"):
        generate(seed=1, dataplane="herd")


def test_schedule_round_trips_through_dict():
    schedule = generate(seed=17, dataplane="txn-onesided")
    schedule.params["n_items"] = 64
    back = Schedule.from_dict(schedule.to_dict())
    assert back.to_dict() == schedule.to_dict()
    assert back.runner_params()["n_items"] == 64
    assert back.runner_params()["scenario"] == "txn-onesided"


def test_schedule_from_dict_rejects_unknown_dataplanes():
    data = generate(seed=1, dataplane="herd").to_dict()
    data["dataplane"] = "floppy-disk"
    with pytest.raises(ValueError, match="floppy-disk"):
        Schedule.from_dict(data)


# ---------------------------------------------------------------------------
# Atoms: the shrinker's decomposition
# ---------------------------------------------------------------------------


def test_atoms_fold_flap_sugar_and_round_trip():
    plan = (
        FaultPlan(seed=3)
        .drop(rate=0.1, end_ns=50.0)
        .rnr("cm0", rate=0.2, end_ns=40.0)
        .crash_server(0, at_ns=10.0, down_ns=5.0)
        .flap_link("cm1", at_ns=20.0, down_ns=4.0)
    )
    atoms = atoms_of(plan)
    # flap counts once, not as its two sugar drop rules
    assert [kind for kind, _ in atoms] == ["link", "rnr", "crash", "flap"]
    rebuilt = plan_from_atoms(plan.seed, atoms)
    assert rebuilt.to_dict() == plan.to_dict()
    # dropping the flap atom drops its sugar rules too
    no_flap = plan_from_atoms(plan.seed, atoms[:-1])
    assert not no_flap.flaps
    assert all(r.tag != "flap" for r in no_flap.link_rules)


def test_plan_from_atoms_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        plan_from_atoms(1, [("gremlin", None)])


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_resolve_maps_names_and_fails_loudly_on_typos():
    (oracle,) = resolve(("planted-no-crash",))
    assert callable(oracle)
    assert resolve(()) == ()
    with pytest.raises(ValueError, match="planted-no-crash"):
        resolve(("planted-no-crsh",))


# ---------------------------------------------------------------------------
# Healthy runs: every dataplane survives a generated schedule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dataplane", DATAPLANE_NAMES)
def test_healthy_tree_survives_a_generated_schedule(dataplane):
    schedule = generate(seed=7, dataplane=dataplane)
    result = run_schedule(schedule)
    assert result.ok, result.violations
    assert result.fingerprint
    assert result.dataplane == dataplane
    # and byte-identically so
    again = run_schedule(generate(seed=7, dataplane=dataplane))
    assert again.fingerprint == result.fingerprint


# ---------------------------------------------------------------------------
# The planted-bug arm: find -> shrink -> artifact -> replay
# ---------------------------------------------------------------------------


def _planted_failure():
    """The first herd schedule (on the smoke gate's seed path) whose
    plan contains a crash move."""
    for i in range(24):
        schedule = generate(derive_seed(7, "nemesis.planted.%d" % i), "herd")
        if schedule.plan.crashes:
            return schedule
    raise AssertionError("no crash move in 24 draws")


@pytest.fixture(scope="module")
def planted_shrunk():
    schedule = _planted_failure()
    oracles = resolve(("planted-no-crash",))
    assert not run_schedule(schedule, oracles).ok
    return shrink_schedule(schedule, oracles)


def test_shrink_reduces_the_planted_bug_to_the_crash_atom(planted_shrunk):
    shrunk = planted_shrunk
    assert shrunk.atoms_after == 1
    assert shrunk.minimal
    assert shrunk.atoms_before > shrunk.atoms_after
    atoms = atoms_of(shrunk.schedule.plan)
    assert [kind for kind, _ in atoms] == ["crash"]
    assert shrunk.violations  # the minimal plan still fails
    assert shrunk.tests > 0


def test_shrink_is_deterministic(planted_shrunk):
    again = shrink_schedule(_planted_failure(), resolve(("planted-no-crash",)))
    assert again.fingerprint == planted_shrunk.fingerprint
    assert again.schedule.plan.to_dict() == planted_shrunk.schedule.plan.to_dict()
    assert again.tests == planted_shrunk.tests


def test_shrink_refuses_a_passing_schedule():
    schedule = generate(seed=7, dataplane="herd")
    with pytest.raises(ValueError, match="does not fail"):
        shrink_schedule(schedule)


def _dropped_send_with_company(result):
    """Planted: fails iff a SEND was dropped (the plan's only drop rule
    aims at SENDs) and a NIC stall, a QP error and an RNR drop fired."""
    counts = result.report.fault_counts
    if all(counts.get(k) for k in ("link.drop", "nic_stall", "qp_error", "rnr_drop")):
        return ["planted oracle: a SEND dropped with a stall, a QP error and RNR"]
    return []


def test_shrink_narrows_every_surviving_atom_in_time():
    """Four load-bearing atoms survive ddmin, so the 1-minimality sweep
    runs over several atoms; window halving then tightens the SEND drop
    window, the RNR window, the stall and the QP error's downtime."""
    plan = (
        FaultPlan(seed=99)
        .corrupt(rate=0.02, start_ns=10_000.0, end_ns=30_000.0)
        .drop(rate=1.0, start_ns=40_000.0, end_ns=44_000.0, packet_kind="SEND")
        .delay(2_000.0, rate=0.1, start_ns=20_000.0, end_ns=60_000.0)
        .nic_stall("server", engine="ingress", at_ns=70_000.0, duration_ns=4_000.0)
        .qp_error("cm1", qpn=1, at_ns=30_000.0, recover_after_ns=4_000.0)
        .rnr("cm2", rate=0.5, start_ns=60_000.0, end_ns=76_000.0)
    )
    schedule = Schedule(seed=5, dataplane="herd", plan=plan)
    oracles = [_dropped_send_with_company]
    shrunk = shrink_schedule(schedule, oracles)
    assert shrunk.minimal and shrunk.violations
    atoms = dict(atoms_of(shrunk.schedule.plan))
    assert sorted(atoms) == ["link", "qp", "rnr", "stall"]
    link = atoms["link"]
    assert link.packet_kind == "SEND"
    assert 40_000.0 <= link.start_ns < link.end_ns <= 44_000.0
    assert link.end_ns - link.start_ns <= 4_000.0 / 2
    assert atoms["rnr"].end_ns - atoms["rnr"].start_ns <= 16_000.0 / 2
    assert atoms["stall"].duration_ns <= 4_000.0 / 2
    assert atoms["qp"].recover_after_ns <= 4_000.0 / 2
    # the shrunk schedule still fails, and replays byte-identically
    replayed = run_schedule(shrunk.schedule, oracles)
    assert replayed.violations == shrunk.violations
    assert replayed.fingerprint == shrunk.fingerprint


def test_artifact_round_trip_and_byte_identical_replay(planted_shrunk, tmp_path):
    oracles = resolve(("planted-no-crash",))
    result = run_schedule(planted_shrunk.schedule, oracles)
    artifact = build_artifact(
        result,
        oracles=("planted-no-crash",),
        shrink_stats={
            "atoms_before": planted_shrunk.atoms_before,
            "atoms_after": planted_shrunk.atoms_after,
            "tests": planted_shrunk.tests,
            "minimal": planted_shrunk.minimal,
        },
    )
    path = str(tmp_path / "repro.json")
    save_artifact(path, artifact)
    loaded = load_artifact(path)
    assert loaded == artifact
    # strict JSON on disk: open windows encode as the string "inf"
    assert json.dumps(loaded)

    outcome = replay(path)
    assert outcome.reproduced
    assert outcome.fingerprint_identical and outcome.violations_match
    assert "reproduced byte-identically" in outcome.summary()


def test_replay_detects_a_tampered_artifact(planted_shrunk, tmp_path):
    result = run_schedule(planted_shrunk.schedule, resolve(("planted-no-crash",)))
    artifact = build_artifact(result, oracles=("planted-no-crash",))
    artifact["fingerprint"] = "0" * 64
    path = str(tmp_path / "tampered.json")
    save_artifact(path, artifact)
    outcome = replay(path)
    assert not outcome.reproduced
    assert "DID NOT REPRODUCE" in outcome.summary()


def test_load_artifact_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-a-repro.json"
    path.write_text('{"kind": "grocery-list", "version": 1}')
    with pytest.raises(ValueError, match="not a nemesis repro"):
        load_artifact(str(path))
    path.write_text('{"kind": "nemesis-repro", "version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_artifact(str(path))


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------


def test_search_round_robins_and_passes_on_a_healthy_tree():
    report = search(6, seed=1, shrink=False)
    assert report.ok
    assert report.examined == 6
    assert report.per_dataplane == {name: 1 for name in DATAPLANE_NAMES}
    assert "0 failure(s)" in report.summary()


def test_search_restricted_to_one_dataplane():
    report = search(2, seed=3, dataplanes=("herd",), shrink=False)
    assert report.ok
    assert report.per_dataplane == {"herd": 2}


def test_search_finds_shrinks_and_freezes_the_planted_bug(tmp_path):
    report = search(
        8,
        seed=7,
        dataplanes=("herd",),
        oracles=("planted-no-crash",),
        shrink=True,
        artifact_dir=str(tmp_path),
    )
    assert not report.ok
    case = report.failures[0]
    assert case.shrunk is not None and case.shrunk.atoms_after == 1
    assert case.artifact_path is not None
    assert replay(case.artifact_path).reproduced


def test_search_validates_its_inputs():
    with pytest.raises(ValueError):
        search(0)
    with pytest.raises(ValueError, match="floppy-disk"):
        search(1, dataplanes=("floppy-disk",))
    with pytest.raises(ValueError, match="unknown oracle"):
        search(1, oracles=("no-such-oracle",))


# ---------------------------------------------------------------------------
# The CLI (herd-bench --nemesis / --nemesis-replay)
# ---------------------------------------------------------------------------


def test_cli_nemesis_search_exits_zero_on_a_healthy_tree(capsys):
    from repro.bench import cli

    rc = cli.main(
        ["--nemesis", "2", "--nemesis-seed", "7", "--nemesis-dataplanes", "herd"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 schedules examined" in out


def test_cli_nemesis_replay_round_trip(planted_shrunk, tmp_path, capsys):
    from repro.bench import cli

    result = run_schedule(planted_shrunk.schedule, resolve(("planted-no-crash",)))
    path = str(tmp_path / "repro.json")
    save_artifact(path, build_artifact(result, oracles=("planted-no-crash",)))
    rc = cli.main(["--nemesis-replay", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reproduced byte-identically" in out
