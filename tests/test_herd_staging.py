"""Regression tests: the staging ring un-inlined sends go through.

Un-inlined responses are DMA-read out of a 64 KiB staging MR by the
NIC *after* ``post_send`` returns, and the sends are unsignaled — no
CQE ever says "fetched".  A cursor that wrapped blindly used to
overwrite payloads still awaiting their fetch.  ``StagingRing`` tracks
one extent per staged WR, frees it when the NIC fetches the WR (or the
device flushes it at post), and makes a sender that finds the ring full
wait for the next fetch.
"""

import pytest

from repro.herd import HerdCluster, HerdConfig
from repro.herd.region import RequestRegion
from repro.herd.server import HerdServerProcess
from repro.hw import APT, Fabric, Machine
from repro.sim import Simulator
from repro.verbs import RdmaDevice, RecvRequest, StagingRing, Transport
from repro.workloads import Workload

pytestmark = pytest.mark.usefixtures("staging_checked")


def make_server():
    sim = Simulator()
    fabric = Fabric(sim, APT)
    server_dev = RdmaDevice(Machine(sim, fabric, "server"))
    client_dev = RdmaDevice(Machine(sim, fabric, "cm0"))
    client_qp = client_dev.create_qp(Transport.UD)
    inbox = client_dev.register_memory(4096)
    client_dev.post_recv(client_qp, RecvRequest(wr_id=0, local=(inbox, 0, 4096)))
    config = HerdConfig(n_server_processes=1, window=4)
    region = RequestRegion(sim, server_dev, config, n_clients=1)
    proc = HerdServerProcess(
        0, server_dev, region, config, [("cm0", client_qp.qpn)]
    )
    return sim, proc


def test_wrap_into_inflight_extent_waits_for_the_fetch():
    """Pre-fix, the wrapped cursor silently reused offset 0 while the
    first response was still awaiting its DMA fetch; then it raised.
    Now the second sender waits and takes the freed extent after the
    fetch."""
    sim = Simulator()
    fabric = Fabric(sim, APT)
    device = RdmaDevice(Machine(sim, fabric, "server"))
    peer = RdmaDevice(Machine(sim, fabric, "cm0"))
    qp = device.create_qp(Transport.UD)
    peer_qp = peer.create_qp(Transport.UD)
    inbox = peer.register_memory(2 * 4096)
    for i in range(2):
        peer.post_recv(peer_qp, RecvRequest(wr_id=i, local=(inbox, i * 4096, 4096)))
    ring = StagingRing(device, 6000)
    ah = ("cm0", peer_qp.qpn)
    posted = []

    def sender(fill):
        payload = fill * 4000
        wr = ring.send(payload, ah)
        while wr is None:
            yield ring.wait()
            wr = ring.send(payload, ah)
        posted.append((sim.now, wr.local[1]))
        yield device.post_send(qp, wr)

    sim.process(sender(b"a"))
    sim.process(sender(b"b"))
    sim.run_until_idle()
    assert ring.waits == 1
    assert [offset for _t, offset in posted] == [0, 0]
    assert posted[1][0] > posted[0][0]  # the second waited for the fetch
    assert ring.in_flight == 0
    assert inbox.read(40, 4000) == b"a" * 4000
    assert inbox.read(4096 + 40, 4000) == b"b" * 4000


def test_oversize_payload_raises_value_error():
    _sim, proc = make_server()
    with pytest.raises(ValueError, match="exceeds the %d B staging" % (1 << 16)):
        proc._staging.send(b"x" * ((1 << 16) + 1))


def test_retired_extent_can_be_reused():
    _sim, proc = make_server()
    ring = proc._staging
    first = ring.send(b"a" * 40_000)
    assert first.local[1] == 0 and ring.in_flight == 1
    assert ring.send(b"b" * 40_000) is None  # would wrap onto it
    first.on_fetched(first)  # the NIC fetched it
    assert ring.send(b"b" * 40_000).local[1] == 0  # wraps onto the freed extent


def test_dma_fetch_releases_extent_end_to_end():
    """An un-inlined response's extent retires once the NIC snapshots
    the payload — without any CQE (the send is unsignaled)."""
    sim, proc = make_server()
    payload = b"v" * 300  # above the 144 B inline cutoff
    sim.process(proc._respond(0, payload))
    sim.run_until_idle()
    assert proc._staging.in_flight == 0
    assert proc._staging.mr.read(0, 300) == payload


def test_a_wr_flushed_on_an_error_qp_releases_its_extent():
    """Nothing fetches a WR posted to an ERROR-state QP: the device
    flushes it at post, and that must free its extent too."""
    sim, proc = make_server()
    proc.ud_qp.transition_to_error()
    sim.process(proc._respond(0, b"v" * 300))
    sim.run_until_idle()
    assert proc.ud_qp.flushed_wrs == 1
    assert proc._staging.in_flight == 0


def test_cluster_with_large_values_wraps_and_releases():
    """A sustained run of >144 B values cycles the staging ring many
    times over; every extent must retire and no send may fail."""
    cluster = HerdCluster(
        HerdConfig(n_server_processes=2, window=2),
        n_client_machines=2,
        seed=7,
    )
    cluster.add_clients(
        4, Workload(get_fraction=0.5, value_size=900, n_keys=256)
    )
    cluster.preload(range(256), 900)
    result = cluster.run(warmup_ns=0, measure_ns=200_000)
    assert result.ops > 100
    assert sum(c.failures for c in cluster.clients) == 0
    for server in cluster.servers:
        assert server._staging.in_flight == 0
        assert server._staging.waits == 0


@pytest.mark.parametrize(
    "config, limit",
    [
        (HerdConfig(n_server_processes=2, window=2), 1006),
        # the epoch byte of the retry framing takes one more
        (HerdConfig(n_server_processes=2, window=2, retry_timeout_ns=40_000.0), 1005),
    ],
    ids=["plain", "epoch"],
)
def test_a_write_request_fits_its_slot_or_is_refused_before_the_run(config, limit):
    """A WRITE request is its value, LEN and the keyhash (and the epoch
    byte) at the end of a 1 KB region slot.  One byte more used to run
    into the neighbouring staging slot and start inside the previous
    region slot, and failed mid-run (``MrAccessError``: write [3072,
    4100) outside the 4 KiB staging MR); the cluster now refuses such a
    value before anything runs, naming the limit."""
    cluster = HerdCluster(config, n_client_machines=4, seed=5)
    with pytest.raises(ValueError, match="at most %d B" % limit):
        cluster.add_clients(64, Workload(get_fraction=0.5, value_size=limit + 1))
    assert cluster.clients == []
    cluster.add_clients(64, Workload(get_fraction=0.5, value_size=limit, n_keys=256))
    cluster.preload(range(256), limit)
    result = cluster.run(warmup_ns=0, measure_ns=40_000)
    assert result.ops > 100
    assert sum(c.failures for c in cluster.clients) == 0
    assert result.extra["get_misses"] == 0
