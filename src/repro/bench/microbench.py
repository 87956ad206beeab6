"""Raw verbs microbenchmarks (Figures 2, 3, 4, and 6).

These reproduce Section 3's measurements: latency of individual verbs,
inbound and outbound verb throughput versus payload size, and the
all-to-all connection-scaling experiment that motivates UD responses.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional

from repro.hw import APT, Fabric, HardwareProfile, Machine
from repro.sim import Event, RateMeter, Simulator
from repro.verbs import (
    RdmaDevice,
    RecvRequest,
    Transport,
    WorkRequest,
    connect_pair,
)

_WARM_NS = 40_000.0
_MEASURE_NS = 160_000.0

#: selective signaling (Section 3.1): the throughput posters signal one
#: WR in this many and pace on its completion — and the NIC DMA-writes
#: one CQE per signaled WR, which ``repro.analysis`` charges likewise
SIGNAL_EVERY = 4


def _window_poster(
    device: RdmaDevice,
    qp,
    make_wr,
    window: int,
) -> Generator[Event, None, None]:
    """Keep ``window`` verbs outstanding, signalling every
    ``SIGNAL_EVERY``-th one.

    This is the paper's methodology for throughput experiments
    (Section 3.1): a window of outstanding verbs per queue, paced by
    the completions of the selectively-signaled ones.
    """
    sim = device.sim
    p = device.profile
    outstanding = 0
    since_signal = 0
    while True:
        while outstanding < window:
            since_signal += 1
            signaled = since_signal >= SIGNAL_EVERY
            if signaled:
                since_signal = 0
            yield from device.post_send_timed(qp, make_wr(signaled))
            outstanding += 1
        yield qp.send_cq.pop()
        yield sim.timeout(p.cq_poll_ns)
        outstanding -= SIGNAL_EVERY


def _read_poster(device, qp, make_wr, window: int) -> Generator[Event, None, None]:
    """READs are always signaled; pace one-for-one."""
    sim = device.sim
    p = device.profile
    for _ in range(window):
        yield from device.post_send_timed(qp, make_wr(True))
    while True:
        yield qp.send_cq.pop()
        yield sim.timeout(p.cq_poll_ns)
        yield from device.post_send_timed(qp, make_wr(True))


# ---------------------------------------------------------------------------
# Figure 3: inbound throughput
# ---------------------------------------------------------------------------


def inbound_throughput(
    verb: str,
    transport: Transport,
    payload: int,
    n_clients: int = 8,
    window: int = 16,
    profile: HardwareProfile = APT,
) -> float:
    """Mops of ``verb`` that ``n_clients`` machines can issue to one
    server (Figure 3's setup: client process i -> server process i)."""
    sim = Simulator()
    fabric = Fabric(sim, profile)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    meter = RateMeter(_WARM_NS, _WARM_NS + _MEASURE_NS)
    server.write_done_hook = lambda pkt: meter.record(sim.now)
    server.read_served_hook = lambda pkt: meter.record(sim.now)
    target = server.register_memory(1 << 20)
    data = b"x" * payload
    for i in range(n_clients):
        client = RdmaDevice(Machine(sim, fabric, "c%d" % i))
        sink = client.register_memory(1 << 20)
        _sqp, cqp = connect_pair(server, client, transport)

        if verb == "WRITE":
            inline = payload <= profile.max_inline

            def make_wr(signaled, _sink=sink):
                return WorkRequest.write(
                    raddr=target.addr, rkey=target.rkey,
                    payload=data if inline else None,
                    local=None if inline else (_sink, 0, payload),
                    inline=inline, signaled=signaled,
                )

            sim.process(_window_poster(client, cqp, make_wr, window))
        elif verb == "READ":

            def make_wr(signaled, _sink=sink):
                return WorkRequest.read(
                    raddr=target.addr, rkey=target.rkey, local=(_sink, 0, payload)
                )

            sim.process(_read_poster(client, cqp, make_wr, min(window, 16)))
        else:
            raise ValueError("inbound verb must be WRITE or READ")
    sim.run(until=_WARM_NS + _MEASURE_NS)
    return meter.mops()


# ---------------------------------------------------------------------------
# Figure 4: outbound throughput
# ---------------------------------------------------------------------------


def outbound_throughput(
    verb: str,
    payload: int,
    inline: Optional[bool] = None,
    n_remotes: int = 8,
    window: int = 16,
    profile: HardwareProfile = APT,
) -> float:
    """Mops one machine can issue outward (Figure 4's setup: server
    process i -> client machine i).

    ``verb`` is one of ``WR-INLINE`` (WRITE over UC, inlined),
    ``WRITE-UC`` (not inlined), ``SEND-UD`` (inlined), ``READ-RC``.
    """
    sim = Simulator()
    fabric = Fabric(sim, profile)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    end = _WARM_NS + _MEASURE_NS
    meter = RateMeter(_WARM_NS, end)
    data = b"y" * payload
    staging = server.register_memory(max(payload, 64) * 2)
    staging.write(0, data)
    for i in range(n_remotes):
        client = RdmaDevice(Machine(sim, fabric, "c%d" % i))
        client.write_done_hook = lambda pkt: meter.record(sim.now)
        client.send_done_hook = lambda pkt: meter.record(sim.now)
        target = client.register_memory(1 << 20)

        if verb in ("WR-INLINE", "WRITE-UC"):
            use_inline = verb == "WR-INLINE" if inline is None else inline
            sqp, _cqp = connect_pair(server, client, Transport.UC)

            def make_wr(signaled, _target=target, _inline=use_inline):
                return WorkRequest.write(
                    raddr=_target.addr, rkey=_target.rkey,
                    payload=data if _inline else None,
                    local=None if _inline else (staging, 0, payload),
                    inline=_inline, signaled=signaled,
                )

            sim.process(_window_poster(server, sqp, make_wr, window))
        elif verb == "SEND-UD":
            server_qp = server.create_qp(Transport.UD)
            client_qp = client.create_qp(Transport.UD)
            recv_mr = client.register_memory(1 << 20)
            # Clients keep their receive queues stocked.
            for slot in range(4096):
                client.post_recv(
                    client_qp,
                    RecvRequest(
                        wr_id=slot,
                        local=(recv_mr, (slot % 64) * 8192, 8192),
                    ),
                )
            ah = (client.machine.name, client_qp.qpn)
            use_inline = payload <= profile.max_inline if inline is None else inline

            def make_wr(signaled, _ah=ah, _inline=use_inline):
                return WorkRequest.send(
                    payload=data if _inline else None,
                    local=None if _inline else (staging, 0, payload),
                    inline=_inline, signaled=signaled, ah=_ah,
                )

            sim.process(_window_poster(server, server_qp, make_wr, window))

            def drain(cq=client_qp.recv_cq):
                while True:
                    yield cq.pop()

            sim.process(drain())
        elif verb == "READ-RC":
            meter_read = meter
            sqp, _cqp = connect_pair(server, client, Transport.RC)
            sink = server.register_memory(1 << 20)

            def make_wr(signaled, _target=target, _sink=sink):
                return WorkRequest.read(
                    raddr=_target.addr, rkey=_target.rkey, local=(_sink, 0, payload)
                )

            def read_loop(dev=server, qp=sqp, mw=make_wr):
                for _ in range(min(window, 16)):
                    yield from dev.post_send_timed(qp, mw(True))
                while True:
                    yield qp.send_cq.pop()
                    yield sim.timeout(profile.cq_poll_ns)
                    meter_read.record(sim.now)
                    yield from dev.post_send_timed(qp, mw(True))

            sim.process(read_loop())
        else:
            raise ValueError("unknown outbound verb %r" % verb)
    sim.run(until=end)
    return meter.mops()


def tune_window(
    measure,
    candidates=(2, 4, 8, 16, 32),
):
    """Section 3.1's methodology: 'we manually tune the window size for
    maximum aggregate throughput'.  ``measure(window)`` returns Mops;
    returns ``(best_window, best_mops)``.
    """
    best_window, best_mops = None, -1.0
    for window in candidates:
        mops = measure(window)
        if mops > best_mops:
            best_window, best_mops = window, mops
    return best_window, best_mops


# ---------------------------------------------------------------------------
# Figure 6: all-to-all connection scaling
# ---------------------------------------------------------------------------


def alltoall_throughput(
    mode: str,
    n: int,
    payload: int = 32,
    window: int = 8,
    profile: HardwareProfile = APT,
    seed: int = 0,
) -> float:
    """Figure 6: N server processes and N client processes, all-to-all.

    ``mode``: ``in-write-uc`` (clients WRITE to random server
    processes), ``out-write-uc`` (server processes WRITE to random
    clients over N^2 connected QPs), ``out-send-ud`` (server processes
    SEND to random clients from one UD QP each).
    """
    sim = Simulator()
    fabric = Fabric(sim, profile)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    end = _WARM_NS + _MEASURE_NS
    meter = RateMeter(_WARM_NS, end)
    rng = random.Random(seed)
    data = b"z" * payload
    clients = [RdmaDevice(Machine(sim, fabric, "c%d" % i)) for i in range(n)]

    if mode == "in-write-uc":
        server.write_done_hook = lambda pkt: meter.record(sim.now)
        regions = [server.register_memory(1 << 16) for _ in range(n)]
        for client in clients:
            qps = []
            for s in range(n):
                _sqp, cqp = connect_pair(server, client, Transport.UC)
                qps.append((cqp, regions[s]))

            def make_wr(signaled, _qps=qps, _rng=rng):
                cqp, region = _rng.choice(_qps)
                wr = WorkRequest.write(
                    raddr=region.addr, rkey=region.rkey,
                    payload=data, inline=True, signaled=signaled,
                )
                return cqp, wr

            def loop(dev=client, mw=make_wr, w=window):
                outstanding, since = 0, 0
                signal_qp = None
                while True:
                    while outstanding < w:
                        since += 1
                        signaled = since >= SIGNAL_EVERY
                        if signaled:
                            since = 0
                        qp, wr = mw(signaled)
                        if signaled:
                            signal_qp = qp
                        yield from dev.post_send_timed(qp, wr)
                        outstanding += 1
                    # Wait on the QP that carries the signalled verb.
                    yield signal_qp.send_cq.pop()
                    yield sim.timeout(profile.cq_poll_ns)
                    outstanding -= SIGNAL_EVERY

            sim.process(loop())
    elif mode == "out-write-uc":
        targets = []
        for client in clients:
            region = client.register_memory(1 << 16)
            client.write_done_hook = lambda pkt: meter.record(sim.now)
            targets.append((client, region))
        for s in range(n):
            qps = []
            for client, region in targets:
                sqp, _cqp = connect_pair(server, client, Transport.UC)
                qps.append((sqp, region))

            def loop(_qps=qps, _rng=rng, w=window):
                outstanding, since = 0, 0
                signal_qp = None
                while True:
                    while outstanding < w:
                        since += 1
                        signaled = since >= SIGNAL_EVERY
                        if signaled:
                            since = 0
                        qp, region = _rng.choice(_qps)
                        if signaled:
                            signal_qp = qp
                        wr = WorkRequest.write(
                            raddr=region.addr, rkey=region.rkey,
                            payload=data, inline=True, signaled=signaled,
                        )
                        yield from server.post_send_timed(qp, wr)
                        outstanding += 1
                    yield signal_qp.send_cq.pop()
                    yield sim.timeout(profile.cq_poll_ns)
                    outstanding -= SIGNAL_EVERY

            sim.process(loop())
    elif mode == "out-send-ud":
        addresses = []
        for client in clients:
            client.send_done_hook = lambda pkt: meter.record(sim.now)
            qp = client.create_qp(Transport.UD)
            recv_mr = client.register_memory(1 << 20)
            for slot in range(4096):
                client.post_recv(
                    qp,
                    RecvRequest(wr_id=slot, local=(recv_mr, (slot % 64) * 8192, 8192)),
                )
            addresses.append((client.machine.name, qp.qpn))

            def drain(cq=qp.recv_cq):
                while True:
                    yield cq.pop()

            sim.process(drain())
        for s in range(n):
            ud_qp = server.create_qp(Transport.UD)

            def make_wr(signaled, _rng=rng):
                return WorkRequest.send(
                    payload=data, inline=True, signaled=signaled,
                    ah=_rng.choice(addresses),
                )

            sim.process(_window_poster(server, ud_qp, make_wr, window))
    else:
        raise ValueError("unknown all-to-all mode %r" % mode)

    sim.run(until=end)
    return meter.mops()


# ---------------------------------------------------------------------------
# Figure 2: verb latency
# ---------------------------------------------------------------------------


def verb_latency(
    kind: str,
    payload: int,
    profile: HardwareProfile = APT,
    samples: int = 30,
) -> float:
    """Mean unloaded latency in microseconds of one verb (Figure 2).

    ``kind``: ``READ``, ``WRITE`` (signaled, not inlined),
    ``WR-INLINE`` (signaled, inlined), or ``ECHO`` (a round trip of
    unsignaled inlined WRITEs, the paper's latency probe for
    unsignaled verbs).
    """
    if kind == "ECHO":
        return _echo_latency(payload, profile, samples)
    sim = Simulator()
    fabric = Fabric(sim, profile)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    client = RdmaDevice(Machine(sim, fabric, "client"))
    remote = server.register_memory(1 << 20)
    sink = client.register_memory(1 << 20)
    src = client.register_memory(1 << 20)
    _sqp, cqp = connect_pair(server, client, Transport.RC)
    data = b"L" * payload
    latencies: List[float] = []

    def probe():
        for _ in range(samples):
            if kind == "READ":
                wr = WorkRequest.read(
                    raddr=remote.addr, rkey=remote.rkey, local=(sink, 0, payload)
                )
            elif kind == "WRITE":
                wr = WorkRequest.write(
                    raddr=remote.addr, rkey=remote.rkey, local=(src, 0, payload)
                )
            elif kind == "WR-INLINE":
                wr = WorkRequest.write(
                    raddr=remote.addr, rkey=remote.rkey, payload=data, inline=True
                )
            else:
                raise ValueError("unknown latency kind %r" % kind)
            start = sim.now
            yield from client.post_send_timed(cqp, wr)
            yield cqp.send_cq.pop()
            yield sim.timeout(profile.cq_poll_ns)
            latencies.append(sim.now - start)

    sim.process(probe())
    sim.run_until_idle()
    return sum(latencies) / len(latencies) / 1e3


def _echo_latency(payload: int, profile: HardwareProfile, samples: int) -> float:
    from repro.baselines.echo import EchoCluster, EchoConfig

    cluster = EchoCluster(
        EchoConfig.wr_wr(payload_bytes=payload, window=1, n_server_processes=1),
        profile=profile,
        n_clients=1,
        n_client_machines=1,
    )
    result = cluster.run(warmup_ns=5_000.0, measure_ns=samples * 4_000.0)
    return result.latency["mean_us"]
