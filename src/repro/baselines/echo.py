"""ECHO servers: every verb pair and optimization level (Figure 5).

An ECHO bounces a client's payload off the server unchanged.  It is the
paper's yardstick: the throughput of the best ECHO bounds any one-RTT
key-value design, and comparing verb pairs under cumulative
optimizations (reliable -> unreliable transport, signaled -> selective
signaling, DMA'd -> inlined payloads) is how Section 3 justifies HERD's
WRITE-request / UD-SEND-response hybrid.

Supported request/response pairs:

* ``WR/WR``     — client WRITEs request, server WRITEs response back
  into the client's memory (fastest, but needs 2 connected QPs worth of
  state per client at the server: does not scale, Section 3.3);
* ``WR/SEND``   — HERD's hybrid: WRITE request, UD SEND response;
* ``SEND/SEND`` — pure messaging, the HPC-style design (also the
  scalable fallback of Section 5.5).

The server can also perform N random memory accesses per request with
or without prefetching — that is Figure 7's experiment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Generator, List, Optional, Tuple

from repro.bench.result import RunResult, collect
from repro.hw import APT, HardwareProfile
from repro.sim import Event, Store
from repro.verbs import (
    CompletionQueue,
    QueuePair,
    RdmaDevice,
    RecvRequest,
    StagingRing,
    Testbed,
    Transport,
    WorkRequest,
)

_RECV_SLOT = 40 + 4096


@dataclass(frozen=True)
class EchoConfig:
    """One ECHO variant."""

    request: str = "WRITE"        # "WRITE" | "SEND"
    response: str = "SEND"        # "WRITE" | "SEND"
    #: False = RC everywhere (the "basic" bars); True = UC for
    #: connected legs, UD for SEND legs marked ``send_over_ud``
    unreliable: bool = True
    #: selective signaling on requests and responses
    unsignaled: bool = True
    #: inline payloads in the WQE (payload must be <= 256)
    inline: bool = True
    #: SEND legs ride UD instead of the connected QP (HERD's responses)
    send_over_ud: bool = False
    payload_bytes: int = 32
    window: int = 4
    n_server_processes: int = 6
    #: Figure 7: random memory accesses per request at the server
    memory_accesses: int = 0
    prefetch: bool = True

    def __post_init__(self) -> None:
        if self.request not in ("WRITE", "SEND"):
            raise ValueError("request must be WRITE or SEND")
        if self.response not in ("WRITE", "SEND"):
            raise ValueError("response must be WRITE or SEND")
        if self.send_over_ud and self.response != "SEND" and self.request != "SEND":
            raise ValueError("send_over_ud needs a SEND leg")
        if self.request == "SEND" and self.response == "WRITE":
            raise ValueError("SEND requests pair with SEND responses")
        # ``not (x >= lo)`` also rejects NaN
        for name in ("window", "n_server_processes"):
            if not (getattr(self, name) >= 1):
                raise ValueError("%s must be >= 1; got %r" % (name, getattr(self, name)))
        if not (1 <= self.payload_bytes <= 4096):
            raise ValueError(
                "payload_bytes must be within [1, 4096] (one 4 KiB request "
                "slot); got %r" % (self.payload_bytes,)
            )
        if not (self.memory_accesses >= 0):
            raise ValueError(
                "memory_accesses must be >= 0; got %r" % (self.memory_accesses,)
            )

    # -- the paper's named variants ---------------------------------------

    @classmethod
    def wr_wr(cls, **kw) -> "EchoConfig":
        return cls(request="WRITE", response="WRITE", **kw)

    @classmethod
    def wr_send(cls, **kw) -> "EchoConfig":
        """HERD's hybrid: WRITE request, SEND-over-UD response."""
        return cls(request="WRITE", response="SEND", send_over_ud=True, **kw)

    @classmethod
    def send_send(cls, **kw) -> "EchoConfig":
        return cls(request="SEND", response="SEND", **kw)

    def at_optimization_level(self, level: str) -> "EchoConfig":
        """'basic' | '+unreliable' | '+unsignaled' | '+inlined'
        (cumulative, matching Figure 5's bar groups)."""
        if level == "basic":
            return replace(self, unreliable=False, unsignaled=False, inline=False)
        if level == "+unreliable":
            return replace(self, unreliable=True, unsignaled=False, inline=False)
        if level == "+unsignaled":
            return replace(self, unreliable=True, unsignaled=True, inline=False)
        if level == "+inlined":
            return replace(self, unreliable=True, unsignaled=True, inline=True)
        raise ValueError("unknown optimization level %r" % level)

    # -- transports --------------------------------------------------------

    @property
    def write_transport(self) -> Transport:
        return Transport.UC if self.unreliable else Transport.RC

    @property
    def send_transport(self) -> Transport:
        if not self.unreliable:
            return Transport.RC
        return Transport.UD if self.send_over_ud else Transport.UC


class _EchoClient:
    """Closed-loop echo client with a window of outstanding echoes."""

    def __init__(self, cid: int, device: RdmaDevice, config: EchoConfig) -> None:
        self.cid = cid
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.conn_qp: Optional[QueuePair] = None     # connected to server proc
        self.ud_qp: Optional[QueuePair] = None       # for UD legs
        self.server_ah: Optional[Tuple[str, int]] = None
        self.request_raddr = 0                       # server slot base addr
        self.request_rkey = 0
        # response landing zone (WRITE responses) or recv buffers (SEND)
        self.resp_mr = device.register_memory(
            max(config.window * max(config.payload_bytes, 1), 64)
        )
        self.recv_mr = device.register_memory(2 * config.window * _RECV_SLOT)
        self._staging = device.register_memory(config.window * 4096)
        self.resp_arrivals = Store(self.sim)
        self.resp_mr.on_write = lambda off, ln: self.resp_arrivals.put(off)
        self._pending: Deque[float] = deque()
        self.completed_hook = None
        self.echoed_bytes_ok = 0
        self.echoed_bytes_bad = 0

    def start(self) -> None:
        self.sim.process(self.run(), name="echo-client-%d" % self.cid)

    def run(self) -> Generator[Event, None, None]:
        cfg = self.config
        for slot in range(cfg.window):
            yield from self._issue(slot)
        while True:
            slot, payload = yield from self._await_response()
            sent_at = self._pending.popleft()
            if payload == self._payload_for(slot):
                self.echoed_bytes_ok += 1
            else:
                self.echoed_bytes_bad += 1
            if self.completed_hook is not None:
                self.completed_hook(self.sim.now, self.sim.now - sent_at)
            yield from self._issue(slot)

    # -- issue ---------------------------------------------------------------

    def _payload_for(self, slot: int) -> bytes:
        body = b"%02d%06d" % (self.cid % 100, slot)
        reps = -(-self.config.payload_bytes // len(body))
        return (body * reps)[: self.config.payload_bytes]

    def _issue(self, slot: int) -> Generator[Event, None, None]:
        cfg = self.config
        payload = self._payload_for(slot)
        if cfg.response == "SEND":
            # pre-post the RECV for the response
            qp = self.ud_qp if cfg.send_transport is Transport.UD else self.conn_qp
            offset = (slot % cfg.window) * _RECV_SLOT
            yield from self.device.post_recv_timed(
                qp, RecvRequest(wr_id=slot, local=(self.recv_mr, offset, _RECV_SLOT))
            )
        if cfg.request == "WRITE":
            raddr = self.request_raddr + slot * 4096
            if cfg.inline:
                wr = WorkRequest.write(
                    raddr=raddr, rkey=self.request_rkey, payload=payload,
                    inline=True, signaled=not cfg.unsignaled,
                )
            else:
                self._staging.write(slot * 4096, payload)
                wr = WorkRequest.write(
                    raddr=raddr, rkey=self.request_rkey,
                    local=(self._staging, slot * 4096, len(payload)),
                    signaled=not cfg.unsignaled,
                )
            yield from self.device.post_send_timed(self.conn_qp, wr)
        else:  # SEND request
            ud = self.config.send_transport is Transport.UD
            qp = self.ud_qp if ud else self.conn_qp
            ah = self.server_ah if ud else None
            if cfg.inline:
                wr = WorkRequest.send(
                    payload=payload, inline=True, signaled=not cfg.unsignaled, ah=ah
                )
            else:
                self._staging.write(slot * 4096, payload)
                wr = WorkRequest.send(
                    local=(self._staging, slot * 4096, len(payload)),
                    signaled=not cfg.unsignaled, ah=ah,
                )
            yield from self.device.post_send_timed(qp, wr)
        self._pending.append(self.sim.now)
        self._drain_send_completions()

    def _drain_send_completions(self) -> None:
        # Signaled runs generate send CQEs; drain them without blocking.
        for queue_pair in (self.conn_qp, self.ud_qp):
            if queue_pair is not None:
                while queue_pair.send_cq.try_pop() is not None:
                    pass

    # -- responses -------------------------------------------------------------

    def _await_response(self) -> Generator[Event, None, Tuple[int, bytes]]:
        cfg = self.config
        if cfg.response == "WRITE":
            offset = yield self.resp_arrivals.get()
            # polling one's own memory costs a few cache probes
            yield self.sim.timeout(4 * self.profile.poll_check_ns)
            slot = offset // max(cfg.payload_bytes, 1)
            return slot, self.resp_mr.read(offset, cfg.payload_bytes)
        qp = self.ud_qp if cfg.send_transport is Transport.UD else self.conn_qp
        cqe = yield qp.recv_cq.pop()
        yield self.sim.timeout(self.profile.cq_poll_ns)
        grh = 40 if cfg.send_transport is Transport.UD else 0
        offset = (cqe.wr_id % cfg.window) * _RECV_SLOT
        return cqe.wr_id, self.recv_mr.read(offset + grh, cqe.byte_len)


class _EchoServerProcess:
    """One server core bouncing requests back."""

    def __init__(
        self,
        index: int,
        device: RdmaDevice,
        config: EchoConfig,
    ) -> None:
        self.index = index
        self.device = device
        self.sim = device.sim
        self.profile = device.profile
        self.config = config
        self.request_mr = None          # set by cluster for WRITE requests
        self.arrivals = Store(self.sim)
        self.recv_cq = CompletionQueue(self.sim, "es%d.rcq" % index)
        self.ud_qp: Optional[QueuePair] = device.create_qp(Transport.UD, recv_cq=self.recv_cq)
        #: per-client state: (QP or None, response ah/addr info)
        self.clients: List[dict] = []
        #: UD requests: map a sender's (machine, qpn) to its client state
        self.ah_index: Dict[Tuple[str, int], int] = {}
        self._staging = StagingRing(device, 1 << 16)
        self._recvs_since_doorbell = 0
        self.echoes = 0

    def start(self) -> None:
        self.sim.process(self.run(), name="echo-server-%d" % self.index)

    def run(self) -> Generator[Event, None, None]:
        cfg = self.config
        p = self.profile
        while True:
            if cfg.request == "WRITE":
                client_slot = yield self.arrivals.get()
                yield self.sim.timeout(4 * p.poll_check_ns)
                local_index, slot, offset = client_slot
                payload = self.request_mr.read(offset, cfg.payload_bytes)
            else:
                cqe = yield self.recv_cq.pop()
                yield self.sim.timeout(p.cq_poll_ns)
                # The payload landed in the buffer of the *consumed* RECV
                # (identified by wr_id); over UD that RECV ring is shared
                # across clients, so the *requester* is identified by the
                # completion's source address instead.
                buf_index, slot = divmod(cqe.wr_id, 1 << 16)
                grh = 40 if cfg.send_transport is Transport.UD else 0
                buf_state = self.clients[buf_index]
                offset = buf_state["recv_base"] + (slot % cfg.window) * _RECV_SLOT
                payload = buf_state["recv_mr"].read(offset + grh, cqe.byte_len)
                if cfg.send_transport is Transport.UD:
                    local_index = self.ah_index[cqe.src]
                else:
                    local_index = buf_index
                # Repost the consumed RECV, ringing the doorbell once
                # per batch of 8 (standard batched-RECV optimization).
                self.device.post_recv(
                    buf_state["recv_qp"],
                    RecvRequest(
                        wr_id=cqe.wr_id,
                        local=(buf_state["recv_mr"], offset, _RECV_SLOT),
                    ),
                )
                yield self.sim.timeout(p.post_recv_ns)
                self._recvs_since_doorbell += 1
                if self._recvs_since_doorbell >= 8:
                    self._recvs_since_doorbell = 0
                    yield self.device.machine.pcie.doorbell()
            # Figure 7: N random memory accesses, maskable by prefetching.
            if cfg.memory_accesses:
                per = p.prefetch_hit_ns if cfg.prefetch else p.dram_ns
                yield self.sim.timeout(cfg.memory_accesses * per)
            yield from self._respond(local_index, slot, payload)
            self.echoes += 1
            self._drain_send_completions()

    def _respond(self, local_index: int, slot: int, payload: bytes):
        cfg = self.config
        state = self.clients[local_index]
        signaled = not cfg.unsignaled
        staging = self._staging
        if cfg.response == "WRITE":
            qp = state["conn_qp"]
            raddr = state["resp_addr"] + slot * max(cfg.payload_bytes, 1)
            rkey = state["resp_rkey"]
            if cfg.inline:
                wr = WorkRequest.write(
                    raddr=raddr, rkey=rkey, payload=payload,
                    inline=True, signaled=signaled,
                )
            else:
                wr = staging.write(payload, raddr, rkey, signaled)
                while wr is None:
                    yield staging.wait()
                    wr = staging.write(payload, raddr, rkey, signaled)
        else:
            ud = cfg.send_transport is Transport.UD
            qp = self.ud_qp if ud else state["conn_qp"]
            ah = state["client_ah"] if ud else None
            if cfg.inline:
                wr = WorkRequest.send(
                    payload=payload, inline=True, signaled=signaled, ah=ah
                )
            else:
                wr = staging.send(payload, ah, signaled)
                while wr is None:
                    yield staging.wait()
                    wr = staging.send(payload, ah, signaled)
        yield from self.device.post_send_timed(qp, wr)

    def _drain_send_completions(self) -> None:
        for state in self.clients:
            qp = state.get("conn_qp")
            if qp is not None:
                while qp.send_cq.try_pop() is not None:
                    pass
        while self.ud_qp.send_cq.try_pop() is not None:
            pass


class EchoCluster(Testbed):
    """A complete ECHO deployment on one simulated fabric."""

    def __init__(
        self,
        config: EchoConfig,
        profile: HardwareProfile = APT,
        n_clients: int = 48,
        n_client_machines: int = 16,
        seed: int = 0,
    ) -> None:
        self.config = config
        super().__init__(profile, n_client_machines, seed)
        self.servers = [
            _EchoServerProcess(s, self.server_device, config)
            for s in range(config.n_server_processes)
        ]
        request_region_bytes = max(n_clients * config.window * 4096, 4096)
        self.request_mr = self.server_device.register_memory(request_region_bytes)
        self.request_mr.on_write = self._request_landed
        self._wire(n_clients)

    def _wire(self, n_clients: int) -> None:
        cfg = self.config
        for cid in range(n_clients):
            device = self.client_device(cid)
            client = _EchoClient(cid, device, cfg)
            sproc = self.servers[cid % len(self.servers)]
            # Clients are dealt to server processes in cid order, so a
            # client's index at its process is plain arithmetic —
            # _request_landed relies on it per arriving packet.
            local_index = cid // len(self.servers)
            assert local_index == len(sproc.clients)

            # connected QP pair (used by WRITE legs and connected SENDs)
            server_qp, client.conn_qp = self.connect(
                self.server_device,
                device,
                cfg.write_transport if cfg.request == "WRITE" else cfg.send_transport
                if cfg.send_transport is not Transport.UD
                else cfg.write_transport,
                sproc.recv_cq,
            )
            client.ud_qp = device.create_qp(Transport.UD)
            client.server_ah = ("server", sproc.ud_qp.qpn)
            client.request_rkey = self.request_mr.rkey
            client.request_raddr = (
                self.request_mr.addr + cid * cfg.window * 4096
            )

            state = {
                "conn_qp": server_qp,
                "client_ah": (device.machine.name, client.ud_qp.qpn),
                "resp_addr": client.resp_mr.addr,
                "resp_rkey": client.resp_mr.rkey,
            }
            if cfg.request == "SEND":
                # the server pre-posts RECVs for this client's requests
                recv_qp = (
                    sproc.ud_qp if cfg.send_transport is Transport.UD else server_qp
                )
                recv_mr = self.server_device.register_memory(
                    2 * cfg.window * _RECV_SLOT
                )
                state["recv_qp"] = recv_qp
                state["recv_mr"] = recv_mr
                state["recv_base"] = 0
                for slot in range(cfg.window):
                    self.server_device.post_recv(
                        recv_qp,
                        RecvRequest(
                            wr_id=(local_index << 16) | slot,
                            local=(recv_mr, (slot % cfg.window) * _RECV_SLOT, _RECV_SLOT),
                        ),
                    )
            sproc.clients.append(state)
            sproc.ah_index[(device.machine.name, client.ud_qp.qpn)] = local_index
            sproc.request_mr = self.request_mr
            self.clients.append(client)

    def _request_landed(self, offset: int, _length: int) -> None:
        cfg = self.config
        cid = offset // (cfg.window * 4096)
        slot = (offset % (cfg.window * 4096)) // 4096
        sproc = self.servers[cid % len(self.servers)]
        sproc.arrivals.put((cid // len(self.servers), slot, offset))

    # ------------------------------------------------------------------

    def run(self, warmup_ns: float = 30_000.0, measure_ns: float = 150_000.0) -> RunResult:
        meter, latencies = self.run_window(warmup_ns, measure_ns)
        bad = sum(c.echoed_bytes_bad for c in self.clients)
        return collect(meter, latencies, measure_ns, echo_mismatches=float(bad))
