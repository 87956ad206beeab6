"""Client-side failover policy: ReplicaMap epochs and stale-nack replay.

The :class:`~repro.ha.failover.ReplicaMap` is the client's whole view of
"who owns partition p right now"; its epoch fencing is what makes
out-of-order CONFIG notifications harmless.  The second half drives the
``RESP_STALE_EPOCH`` nack path on a real wired cluster: a nacked op must
stay pending (it was never executed) and replay iff the map has moved.
"""

import pytest

from repro.ha.failover import ReplicaMap
from repro.herd import HerdCluster, HerdConfig
from repro.workloads import Workload


# ---------------------------------------------------------------------------
# ReplicaMap
# ---------------------------------------------------------------------------


def test_replica_map_starts_at_replica_zero_epoch_zero():
    rmap = ReplicaMap(4, 3)
    assert rmap.primary == [0, 0, 0, 0]
    assert rmap.epoch == [0, 0, 0, 0]


def test_replica_map_epoch_advance_moves_traffic():
    rmap = ReplicaMap(2, 3)
    assert rmap.update(0, 1, epoch=1) is True  # moved: traffic re-aims
    assert rmap.primary[0] == 1 and rmap.epoch[0] == 1
    assert rmap.primary[1] == 0  # other partitions untouched
    # same replica, newer epoch: adopted but nothing moved
    assert rmap.update(0, 1, epoch=2) is False
    assert rmap.epoch[0] == 2


def test_replica_map_rejects_stale_and_duplicate_epochs():
    rmap = ReplicaMap(2, 3)
    assert rmap.update(0, 2, epoch=5) is True
    # a reordered (older) notification can never roll the client back
    assert rmap.update(0, 0, epoch=4) is False
    assert rmap.update(0, 0, epoch=5) is False
    assert rmap.primary[0] == 2 and rmap.epoch[0] == 5


def test_replica_map_validation_and_lanes():
    with pytest.raises(ValueError):
        ReplicaMap(0, 3)
    with pytest.raises(ValueError):
        ReplicaMap(2, 0)
    rmap = ReplicaMap(2, 3)
    with pytest.raises(ValueError):
        rmap.update(0, 3, epoch=1)  # replica id out of range for rf=3
    rmap.update(1, 2, epoch=1)
    # lane = replica * NS + partition (rf=1 degenerates to partition)
    assert rmap.lane(0, 2) == 0
    assert rmap.lane(1, 2) == 2 * 2 + 1


# ---------------------------------------------------------------------------
# RESP_STALE_EPOCH replay path
# ---------------------------------------------------------------------------


def _wired_client():
    config = HerdConfig(
        n_server_processes=2,
        window=2,
        retry_timeout_ns=20_000.0,
        replication_factor=3,
        ack_policy="majority",
    )
    cluster = HerdCluster(config, n_client_machines=1, seed=7)
    cluster.add_clients(1, Workload(get_fraction=0.0, value_size=24, n_keys=8))
    cluster.wire()
    client = cluster.clients[0]

    sent = []

    def issue():
        op = client.stream.next_op()
        server = 0
        yield from client._send_op(op, server)
        sent.append(server)

    cluster.sim.process(issue(), name="test-issue")
    cluster.sim.run(until=5_000.0)
    assert sent, "the op was never issued"
    record = client._pending[0][-1]
    client._pending[0].remove(record)  # as _absorb does before the nack
    lane = record.replica * config.n_server_processes + record.server
    return cluster, client, record, lane


def test_stale_nack_with_an_unmoved_map_requeues_without_replay():
    cluster, client, record, lane = _wired_client()
    assert client.ha_map.primary[0] == record.replica == 0
    consumed = client._recv_order[lane].popleft()  # as _absorb does
    client._on_stale_nack(record, lane)
    cluster.sim.run(until=cluster.sim.now + 50_000.0)
    # the op is still pending at the same replica — the retry/CONFIG
    # path owns the actual move — and nothing was replayed
    assert record in client._pending[0]
    # its fresh RECV came from the lane's rotation, not the consumed buffer
    (rearmed,) = client._recv_order[lane]
    assert rearmed != consumed
    assert record.replica == 0
    assert client.stale_nacks == 1
    assert client.replays == 0


def test_stale_nack_after_a_config_move_replays_to_the_new_primary():
    cluster, client, record, lane = _wired_client()
    # the monitor's CONFIG landed first: partition 0 moved to replica 1
    assert client.ha_map.update(0, 1, epoch=1) is True
    client._on_stale_nack(record, lane)
    cluster.sim.run(until=cluster.sim.now + 50_000.0)
    # the nacked op chased the partition to its new primary
    assert record in client._pending[0]
    assert record.replica == 1
    assert client.stale_nacks == 1
    assert client.replays == 1
