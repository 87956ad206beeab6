"""End-to-end repro.txn: both commit dataplanes against the checker.

Every cluster run here finishes with the full audit pipeline — a
Wing-Gong strict-serializability check over the recorded transaction
history, a torn-write scan of the final store bytes, and a determinism
fingerprint — so these tests are the executable form of the subsystem's
correctness claims.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, run_chaos
from repro.hw import APT
from repro.obs import capture
from repro.txn import (
    DATAPLANES,
    QueueConfig,
    TxnCluster,
    TxnConfig,
    TxnQueueCluster,
    make_value,
    parse_value,
)
from repro.txn import wire
from repro.verbs import Opcode, RdmaDevice

pytestmark = pytest.mark.usefixtures("staging_checked")

QUICK = dict(warmup_ns=10_000.0, measure_ns=80_000.0)


def run_cluster(seed=0, n_clients=6, plan=None, **cfg):
    cluster = TxnCluster(TxnConfig(**cfg), n_clients=n_clients, seed=seed)
    if plan is not None:
        cluster.install_faults(plan)
    return cluster.run(**QUICK)


def pause_partition_0():
    """Partition 0's participant down 30..70 us: a plan crash rule."""
    return FaultPlan().crash_server(0, at_ns=30_000.0, down_ns=40_000.0)


# ---------------------------------------------------------------------------
# configuration and value tagging
# ---------------------------------------------------------------------------


def test_unknown_dataplane_rejected_with_the_valid_choices():
    with pytest.raises(ValueError, match="rpc, onesided"):
        TxnConfig(dataplane="dcqcn")
    with pytest.raises(ValueError, match="unknown dataplane"):
        QueueConfig(dataplane="rdma")


def test_write_set_cannot_exceed_the_key_set():
    with pytest.raises(ValueError):
        TxnConfig(keys_per_txn=2, writes_per_txn=3)
    with pytest.raises(ValueError, match="n_hot"):
        TxnConfig(keys_per_txn=3, n_hot=2, hot_fraction=0.5)


def test_value_tag_roundtrip():
    value = make_value(client=3, seq=41, key=7, value_bytes=24)
    assert len(value) == 24
    assert parse_value(value) == (3, 41, 7)
    assert parse_value(b"\x00" * 24) is None


def test_wire_roundtrips():
    body = wire.encode_prepare([(1, 9), (2, 0)], [(3, b"x" * 8)])
    reads, writes = wire.decode_prepare(body, value_bytes=8)
    assert reads == [(1, 9), (2, 0)]
    assert writes == [(3, b"x" * 8)]
    buf = wire.encode_request(wire.TXN_PREPARE, 7, body)
    kind, seq, decoded = wire.decode_request(buf)
    assert (kind, seq, decoded) == (wire.TXN_PREPARE, 7, body)
    resp = wire.encode_response(wire.TXN_COMMIT, 7, wire.ST_OK, 1, b"zz")
    assert wire.decode_response(resp) == (wire.TXN_COMMIT, 7, wire.ST_OK, 1, b"zz")


@pytest.mark.parametrize(
    "keys, writes, value_bytes", [(4, 4, 1400), (6, 6, 900)]
)
def test_a_response_over_one_mtu_is_rejected_at_construction(keys, writes, value_bytes):
    # Both shapes used to be accepted and then crash mid-run: the first
    # with MrAccessError (a 5 643 B request in a fixed 4 KiB staging MR),
    # the second with VerbError (a UD response over one MTU).
    config = TxnConfig(
        keys_per_txn=keys, writes_per_txn=writes, value_bytes=value_bytes
    )
    with pytest.raises(ValueError, match="4096 B MTU"):
        TxnCluster(config)


@settings(max_examples=20, deadline=None)
@given(
    dataplane=st.sampled_from(DATAPLANES),
    keys=st.integers(1, 8),
    write_share=st.floats(0.0, 1.0),
    value_bytes=st.integers(1, 1500),
    n_partitions=st.integers(1, 4),
)
def test_every_accepted_shape_runs(dataplane, keys, write_share, value_bytes, n_partitions):
    # what the checks below stand for: a value names its writer in 16 B,
    # one-sided slots are locked with aligned 8-byte atomics, and an RPC
    # response is one UD SEND into a GRH-prefixed receive buffer
    shape = dict(
        dataplane=dataplane,
        keys_per_txn=keys,
        writes_per_txn=int(write_share * keys),
        value_bytes=value_bytes,
        n_partitions=n_partitions,
    )
    response_slot = max(256, -(-(16 + keys * (12 + value_bytes)) // 64) * 64)
    unsendable = (
        value_bytes < 16
        or (dataplane == "onesided" and value_bytes % 8 != 0)
        or (dataplane == "rpc" and response_slot + APT.grh_bytes > APT.mtu)
    )
    try:
        cluster = TxnCluster(TxnConfig(**shape), n_clients=2, n_client_machines=2)
    except ValueError:
        assert unsendable
        return
    assert not unsendable
    cluster.run(warmup_ns=0.0, measure_ns=20_000.0)


def test_onesided_installs_above_the_inline_limit_are_staged():
    # Regression: an install image above the inline limit was posted as
    # a non-inline WRITE with no local buffer, and the NIC's fetch
    # crashed; hypothesis found it only now and then.
    config = TxnConfig(
        dataplane="onesided", keys_per_txn=4, writes_per_txn=2, value_bytes=488,
        n_partitions=2, hot_fraction=0.9,
    )
    cluster = TxnCluster(config, n_clients=4, n_client_machines=2, seed=3)
    report = cluster.run(warmup_ns=10_000.0, measure_ns=60_000.0)
    assert report.ok and report.torn_writes == 0
    assert report.commits > 0
    assert all(c._staging.in_flight == 0 for c in cluster.clients)


def test_a_call_never_restages_over_an_unfetched_request(monkeypatch):
    # Regression: RpcChannel staged every request through a bare cursor
    # in a fixed 4 KiB MR.  One call stages a request per partition, and
    # four ~2.9 KiB PREPAREs wrapped onto requests the NIC had not
    # fetched yet: 1 of 394 staged posts carried another request's bytes.
    posted, fetched = {}, []
    post_send, transmit = RdmaDevice.post_send, RdmaDevice._transmit_wr

    def snapshot(device, qp, wr):
        if not wr.inline and wr.opcode in (Opcode.SEND, Opcode.WRITE):
            mr, offset, length = wr.local
            posted[wr] = mr.read(offset, length)
        return post_send(device, qp, wr)

    def compare(device, qp, wr, plan):
        if wr in posted:
            mr, offset, length = wr.local
            fetched.append(mr.read(offset, length) == posted.pop(wr))
        return transmit(device, qp, wr, plan)

    monkeypatch.setattr(RdmaDevice, "post_send", snapshot)
    monkeypatch.setattr(RdmaDevice, "_transmit_wr", compare)
    report = run_cluster(
        seed=0, n_clients=12, keys_per_txn=4, writes_per_txn=4,
        value_bytes=700, n_partitions=4,
    )
    assert report.ok, report.violation
    assert len(fetched) > 300
    assert all(fetched)


# ---------------------------------------------------------------------------
# serializability across dataplanes and seeds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dataplane", DATAPLANES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dataplane_serializable_across_seeds(dataplane, seed):
    report = run_cluster(seed=seed, dataplane=dataplane)
    assert report.commits > 0
    assert report.violation is None, report.violation
    assert report.torn_writes == 0
    assert report.ok


@pytest.mark.parametrize("dataplane", DATAPLANES)
def test_contended_hot_keys_stay_serializable(dataplane):
    report = run_cluster(
        seed=5, dataplane=dataplane, hot_fraction=0.8, n_hot=3, n_keys=64
    )
    assert report.ok, report.violation
    if dataplane == "onesided":
        # CAS lock races must show up as aborts, not as anomalies
        assert report.aborts > 0


def test_contention_hurts_onesided_more_than_rpc():
    # The crossover mechanic: hot single-partition txns are one-shot
    # RPCs (zero aborts) but CAS abort storms one-sided.
    cold = run_cluster(seed=4, dataplane="onesided", hot_fraction=0.0)
    hot = run_cluster(seed=4, dataplane="onesided", hot_fraction=0.9, n_hot=3)
    assert hot.abort_rate > cold.abort_rate
    hot_rpc = run_cluster(seed=4, dataplane="rpc", hot_fraction=0.9, n_hot=3)
    assert hot_rpc.abort_rate < hot.abort_rate


def test_throughput_crossover_between_the_dataplanes():
    # What the abort storm costs, in Mops, at the figure's own size
    # (docs/TXN.md): uncontended, one-sided commits win by skipping the
    # server CPU; on hot keys the RPC path wins by more than 2x.
    from repro.bench.figures import run_txn

    cold_rpc = run_txn(dataplane="rpc", hot_fraction=0.0)
    cold_one = run_txn(dataplane="onesided", hot_fraction=0.0)
    hot_rpc = run_txn(dataplane="rpc", hot_fraction=0.9)
    hot_one = run_txn(dataplane="onesided", hot_fraction=0.9)
    assert all(r.ok for r in (cold_rpc, cold_one, hot_rpc, hot_one))
    assert cold_one.result.mops > cold_rpc.result.mops
    assert hot_rpc.result.mops > 2 * hot_one.result.mops


def test_read_only_workload_never_aborts_onesided():
    report = run_cluster(seed=2, dataplane="onesided", read_only_fraction=1.0)
    assert report.ok
    assert report.commits > 0
    assert report.aborts == 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dataplane", DATAPLANES)
def test_fingerprint_reproducible(dataplane):
    first = run_cluster(seed=7, dataplane=dataplane)
    second = run_cluster(seed=7, dataplane=dataplane)
    assert first.fingerprint == second.fingerprint
    third = run_cluster(seed=8, dataplane=dataplane)
    assert third.fingerprint != first.fingerprint


# ---------------------------------------------------------------------------
# crash-pause: the CPU-bypass contrast
# ---------------------------------------------------------------------------


# The crash arm used to be a config field, scheduled after the window
# opened; as a plan rule it is scheduled at install time, and the two
# histories are the same (these digests date from the config field).


def test_rpc_rides_out_a_server_pause_with_zero_torn_commits():
    report = run_cluster(seed=3, dataplane="rpc", plan=pause_partition_0())
    assert report.ok, report.violation
    assert report.torn_writes == 0
    assert report.commits > 0
    assert report.fingerprint == (
        "71204606dc2711e9a14c0b459a06901c043850d56ab98bcfd78785dec2cf51d3"
    )


def test_onesided_commits_through_the_outage():
    report = run_cluster(seed=3, dataplane="onesided", plan=pause_partition_0())
    assert report.ok, report.violation
    # one-sided commit never touches the server CPU: progress continues
    # while the RPC dataplane's partition-0 poller is dead
    assert report.commits_in_outage > 0
    assert report.fingerprint == (
        "240e24fabbfd20d70e80c94dae5be463dbde6db27026e2f308dfc5da904d7ef0"
    )


# ---------------------------------------------------------------------------
# the chaos harness builds the same cluster
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dataplane", DATAPLANES)
def test_run_chaos_runs_and_audits_the_txn_cluster(dataplane):
    # a txn-* entry is this cluster built from run_chaos's arguments,
    # its default plan the crash arm, the history the one built by hand
    horizon = 90_000.0
    report = run_chaos(
        seed=3, scenario="txn-" + dataplane, horizon_ns=horizon,
        n_clients=6, value_size=24,
    )
    cluster = TxnCluster(TxnConfig(dataplane=dataplane), n_clients=6, seed=3)
    cluster.install_faults(
        FaultPlan(seed=3).crash_server(0, at_ns=0.35 * horizon, down_ns=0.3 * horizon)
    )
    by_hand = cluster.run(warmup_ns=0.0, measure_ns=horizon)
    assert report.ok and by_hand.ok, report.violations
    assert report.checker == "serializable"
    digest = hashlib.sha256(by_hand.fingerprint.encode() + b"\n").hexdigest()
    assert report.fingerprint == digest
    assert (report.completed, report.abandoned) == (by_hand.commits, by_hand.aborts)
    assert (report.server_crashes, report.server_recoveries) == (1, 1)
    assert cluster.servers[0].crashes == cluster.servers[0].recoveries == 1


def test_run_chaos_reports_a_txn_audit_failure(monkeypatch):
    import repro.txn.cluster

    monkeypatch.setattr(repro.txn.cluster, "check_serializable", lambda *a, **k: "planted")
    monkeypatch.setattr(TxnCluster, "_torn_writes", lambda *a: 2)
    report = run_chaos(seed=1, scenario="txn-rpc", horizon_ns=40_000.0, crash=False)
    assert report.violations == [
        "not strictly serializable: planted",
        "2 torn writes in the final state",
    ]
    assert (report.checker, report.ops_lost, report.server_crashes) == ("violated", 2, 0)


# ---------------------------------------------------------------------------
# observability counters
# ---------------------------------------------------------------------------


def test_txn_counters_reach_the_run_report():
    with capture() as session:
        rpc = run_cluster(seed=1, dataplane="rpc", hot_fraction=0.5, n_hot=4)
        onesided = run_cluster(seed=1, dataplane="onesided", hot_fraction=0.5, n_hot=4)
    runs = session.metrics_dict()["runs"]
    assert len(runs) == 2
    for report, counters in zip((rpc, onesided), (r["counters"] for r in runs)):
        assert counters["txn.commits"] == report.commits
        assert counters.get("txn.aborts", 0) == report.aborts
    # the one-sided dataplane locks with remote atomics; RPC never does
    assert runs[1]["counters"]["verbs.server.atomics"] > 0
    assert "verbs.server.atomics" not in runs[0]["counters"]
    assert onesided.server_counters["atomics_served"] > 0


# ---------------------------------------------------------------------------
# the FIFO queue both ways
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dataplane,ticket_mode",
    [("rpc", "cas"), ("onesided", "cas"), ("onesided", "faa")],
)
def test_queue_conserves_items(dataplane, ticket_mode):
    cluster = TxnQueueCluster(
        QueueConfig(dataplane=dataplane, ticket_mode=ticket_mode), seed=4
    )
    report = cluster.run()
    assert report.ok, report.violations
    assert report.enqueued == report.dequeued > 0


def test_queue_faa_tickets_never_lose_the_claim_race():
    cas = TxnQueueCluster(QueueConfig(dataplane="onesided", ticket_mode="cas"), seed=4).run()
    faa = TxnQueueCluster(QueueConfig(dataplane="onesided", ticket_mode="faa"), seed=4).run()
    assert cas.enq_retries > 0       # CAS ticket claims lose races
    assert faa.enq_retries == 0      # FETCH_ADD cannot lose
    assert faa.ok and cas.ok


def test_queue_determinism():
    runs = [
        TxnQueueCluster(QueueConfig(dataplane="onesided"), seed=9).run().result.ops
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
