"""Event tracing: reproduces Figure 1 (steps involved in posting verbs).

Attach a :class:`Tracer` to a simulator (``sim.tracer = Tracer(sim)``,
before building the fabric and machines on it — they look the tracer up
once, at construction) and every hardware station records its busy
spans: PIO writes, NIC engine processing, DMA transactions, wire
flights, plus semantic markers from the verbs layer (postings,
completions, ACKs).  The :func:`fig1` experiment runs one of each verb
on an otherwise idle fabric and renders the timeline — the paper's
Figure 1 as text.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

from repro.hw import APT, Fabric, HardwareProfile, Machine
from repro.sim import Simulator
from repro.verbs import (
    RdmaDevice,
    RecvRequest,
    Transport,
    WorkRequest,
    connect_pair,
)


@dataclass
class TraceEvent:
    start_ns: float
    end_ns: float
    station: str
    label: str


class Tracer:
    """Collects busy spans and instantaneous markers.

    With ``max_events`` set, the tracer is a bounded ring buffer that
    keeps only the most recent events — long sweeps can stay traced
    without unbounded memory (the Chrome exporter in
    :mod:`repro.obs.export` consumes either mode).
    """

    def __init__(self, sim: Simulator, max_events: Optional[int] = None) -> None:
        self.sim = sim
        self.max_events = max_events
        self.events = [] if max_events is None else deque(maxlen=max_events)

    def span(self, station: str, start_ns: float, end_ns: float, label: str = "") -> None:
        self.events.append(TraceEvent(start_ns, end_ns, station, label))

    def mark(self, station: str, label: str) -> None:
        now = self.sim.now
        self.events.append(TraceEvent(now, now, station, label))

    def render(self, title: str) -> str:
        lines = [title]
        lines.append("%10s %10s  %-22s %s" % ("start(ns)", "end(ns)", "station", "event"))
        lines.append("-" * 72)
        for event in sorted(self.events, key=lambda e: (e.start_ns, e.end_ns)):
            lines.append(
                "%10.0f %10.0f  %-22s %s"
                % (event.start_ns, event.end_ns, event.station, event.label)
            )
        return "\n".join(lines)


def _traced_world(profile: HardwareProfile = APT):
    sim = Simulator()
    sim.tracer = Tracer(sim)
    fabric = Fabric(sim, profile)
    requester = RdmaDevice(Machine(sim, fabric, "requester"))
    responder = RdmaDevice(Machine(sim, fabric, "responder"))
    return sim, requester, responder


#: the four single-verb flows of Figure 1, in the order it shows them
FIG1_VERBS = (
    "WRITE, inlined, unreliable, unsignaled",
    "WRITE (signaled, RC)",
    "READ",
    "SEND/RECV (UD)",
)


def run_verb(kind: str) -> Simulator:
    """Post one verb of ``kind`` on an idle traced fabric; run to idle."""
    sim, requester, responder = _traced_world()
    remote = responder.register_memory(4096)
    remote.write(0, b"R" * 64)
    sink = requester.register_memory(4096)
    src = requester.register_memory(4096)

    if kind == "WRITE, inlined, unreliable, unsignaled":
        _rqp, qp = connect_pair(responder, requester, Transport.UC)
        wr = WorkRequest.write(
            raddr=remote.addr, rkey=remote.rkey, payload=b"w" * 32,
            inline=True, signaled=False,
        )
        requester.post_send(qp, wr)
    elif kind == "WRITE (signaled, RC)":
        _rqp, qp = connect_pair(responder, requester, Transport.RC)
        wr = WorkRequest.write(
            raddr=remote.addr, rkey=remote.rkey, local=(src, 0, 32), signaled=True
        )
        requester.post_send(qp, wr)
    elif kind == "READ":
        _rqp, qp = connect_pair(responder, requester, Transport.RC)
        requester.post_send(
            qp, WorkRequest.read(raddr=remote.addr, rkey=remote.rkey, local=(sink, 0, 32))
        )
    elif kind == "SEND/RECV (UD)":
        rqp = responder.create_qp(Transport.UD)
        inbox = responder.register_memory(2048)
        responder.post_recv(rqp, RecvRequest(wr_id=0, local=(inbox, 0, 2048)))
        qp = requester.create_qp(Transport.UD)
        requester.post_send(
            qp,
            WorkRequest.send(
                payload=b"s" * 32, inline=True, signaled=False,
                ah=("responder", rqp.qpn),
            ),
        )
    else:
        raise ValueError(kind)
    sim.run_until_idle()
    return sim


def _run_one(kind: str) -> str:
    return run_verb(kind).tracer.render("--- %s ---" % kind)


def fig1() -> str:
    """Figure 1: the DMA / PIO / wire steps of each verb, as timelines."""
    sections = [_run_one(kind) for kind in FIG1_VERBS]
    header = (
        "fig1 — Steps involved in posting verbs\n"
        "(PIO spans are the CPU writing WQEs; dma spans are NIC-initiated\n"
        "transactions; wire spans include serialisation + propagation)\n"
    )
    return header + "\n\n".join(sections)
