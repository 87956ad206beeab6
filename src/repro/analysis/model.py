"""Closed-form throughput predictions from per-resource service demands.

Each prediction enumerates the serialised stations an operation
occupies at the *server* machine (the shared side of every experiment)
— NIC ingress and egress engines, the DMA engine, the PIO path, the
wire, and the polling cores — and returns the saturation throughput
``1 / max(demand)`` in Mops, along with the name of the binding
resource.  Client-side stations are assumed replicated enough not to
bind, matching the experiments' many-clients setups.

What a posted verb costs — its WQE's PIO, its payload fetch, its egress
and its wire bytes — is read from :func:`repro.verbs.plan_for`, the
function the simulated device builds its send plans with, so the model
holds no WQE geometry, fetch rule or header arithmetic of its own.  How
often an outbound verb DMA-writes a CQE is the microbenchmarks' own
``SIGNAL_EVERY``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bench.microbench import SIGNAL_EVERY
from repro.herd.wire import PUT_OK, TRAILER_BYTES
from repro.hw.params import APT, HardwareProfile
from repro.kv.cuckoo import BUCKET_BYTES
from repro.kv.hopscotch import HopscotchTable
from repro.kv.interface import KEY_BYTES
from repro.verbs.packets import PacketKind
from repro.verbs.plan import CQE_BYTES, SendPlan, packet_wire_bytes, plan_for
from repro.verbs.types import Opcode, Transport

UC, RC, UD = Transport.UC, Transport.RC, Transport.UD


@dataclass
class Prediction:
    """A predicted saturation throughput and its bottleneck."""

    mops: float
    bottleneck: str
    demands_ns: Dict[str, float]


def _predict(demands: Dict[str, float]) -> Prediction:
    bottleneck = max(demands, key=demands.get)
    return Prediction(1e3 / demands[bottleneck], bottleneck, dict(demands))


class BottleneckModel:
    """Analytic throughput model for one hardware profile."""

    def __init__(self, profile: HardwareProfile = APT) -> None:
        self.p = profile

    # -- building blocks ----------------------------------------------------

    def pio_ns(self, plan: SendPlan) -> float:
        return self.p.pio_ns(plan.wqe_bytes)

    def fetch_ns(self, plan: SendPlan) -> float:
        """DMA-engine time to fetch the plan's payload (none if inlined)."""
        if plan.fetch_transactions is None:
            return 0.0
        return self.dma_read_ns(plan.length, plan.fetch_transactions)

    def wire_ns(self, wire_bytes: int) -> float:
        return wire_bytes / self.p.link_bw

    def packet_wire_ns(self, kind: PacketKind, length: int) -> float:
        """A packet of ``kind`` carrying ``length`` bytes on the wire."""
        return self.wire_ns(packet_wire_bytes(self.p, kind, length))

    def dma_write_ns(self, payload: int) -> float:
        return self.p.dma_write_ns + payload / self.p.pcie_bw

    def dma_read_ns(self, payload: int, transactions: int = 1) -> float:
        return self.p.dma_read_ns * transactions + payload / self.p.pcie_bw

    # -- microbenchmarks -------------------------------------------------------

    def inbound_write(self, payload: int) -> Prediction:
        """Figure 3: inbound WRITE rate at the server NIC."""
        return _predict(
            {
                "nic_ingress": self.p.nic_ingress_write_ns,
                "dma": self.dma_write_ns(payload),
                "wire": self.packet_wire_ns(PacketKind.WRITE, payload),
            }
        )

    def inbound_read(self, payload: int) -> Prediction:
        """Figure 3: inbound READ rate at the server NIC."""
        return _predict(
            {
                "nic_ingress": self.p.nic_ingress_read_ns,
                "dma": self.dma_read_ns(payload),
                "nic_egress": self.p.nic_egress_ns,
                "wire": self.packet_wire_ns(PacketKind.READ_RESP, payload),
            }
        )

    def _outbound(self, plan: SendPlan, signal_every: int = SIGNAL_EVERY) -> Dict[str, float]:
        """The requester-side stations one posted WR occupies, one WR in
        ``signal_every`` also DMA-writing its CQE (the microbenchmarks'
        selective signaling)."""
        return {
            "pio": self.pio_ns(plan),
            "dma": self.fetch_ns(plan) + self.dma_write_ns(CQE_BYTES) / signal_every,
            "nic_egress": plan.egress_ns,
            "wire": self.wire_ns(plan.wire_bytes),
        }

    def outbound_inline(self, payload: int, ud: bool = False) -> Prediction:
        """Figure 4: outbound inlined WRITE (UC) or SEND (UD) rate."""
        if ud:
            plan = plan_for(self.p, UD, Opcode.SEND, True, payload)
        else:
            plan = plan_for(self.p, UC, Opcode.WRITE, True, payload)
        return _predict(self._outbound(plan))

    def outbound_non_inline(self, payload: int, reliable: bool = False) -> Prediction:
        """Figure 4: outbound WRITE fetched over DMA."""
        plan = plan_for(self.p, RC if reliable else UC, Opcode.WRITE, False, payload)
        return _predict(self._outbound(plan))

    def outbound_read(self, payload: int) -> Prediction:
        """Figure 4: outbound READ issue rate (every READ is signaled)."""
        demands = self._outbound(plan_for(self.p, RC, Opcode.READ, False, payload), 1)
        # the responses return through this NIC's ingress + DMA
        demands["nic_ingress"] = self.p.nic_ingress_resp_ns
        demands["dma"] += self.dma_write_ns(payload)
        demands["wire"] = self.packet_wire_ns(PacketKind.READ_RESP, payload)
        return _predict(demands)

    # -- systems ------------------------------------------------------------------

    def herd(
        self,
        value_size: int = 32,
        get_fraction: float = 0.95,
        cores: int = 6,
        prefetch: bool = True,
    ) -> Prediction:
        """HERD's saturation throughput (Figures 9, 10, 13).

        Requests arrive as inbound WRITEs; responses leave as UD SENDs
        (inlined up to the cutoff); the cores poll, run MICA, and post.
        A GET and a PUT are priced as their own plans, weighted by the
        mix.
        """
        p = self.p
        per_access = p.prefetch_hit_ns if prefetch else p.dram_ns
        accesses = 2 * get_fraction + 1 * (1 - get_fraction)
        core_ns = (
            6 * p.poll_check_ns          # find + decode the slot
            + accesses * per_access      # MICA lookups
            + p.post_send_ns             # driver cost of the response
        )
        demands = dict.fromkeys(("nic_ingress", "dma", "nic_egress", "pio"), 0.0)
        demands.update(cores=core_ns / cores, wire_in=0.0, wire_out=0.0)
        for weight, request, response in (
            (get_fraction, TRAILER_BYTES, value_size),
            (1 - get_fraction, TRAILER_BYTES + value_size, len(PUT_OK)),
        ):
            # the request lands as a WRITE; the response leaves as a SEND
            inline = response <= p.herd_inline_cutoff
            send = plan_for(p, UD, Opcode.SEND, inline, response)
            demands["nic_ingress"] += weight * p.nic_ingress_write_ns
            demands["dma"] += weight * self.dma_write_ns(request)
            demands["dma"] += weight * self.fetch_ns(send)
            demands["nic_egress"] += weight * send.egress_ns
            demands["pio"] += weight * self.pio_ns(send)
            wire_in = self.packet_wire_ns(PacketKind.WRITE, request)
            demands["wire_in"] += weight * wire_in
            demands["wire_out"] += weight * self.wire_ns(send.wire_bytes)
        return _predict(demands)

    # -- latency -----------------------------------------------------------

    def verb_latency_ns(self, kind: str, payload: int) -> float:
        """Unloaded latency of one verb (Figure 2), as a sum of path
        components — cross-validates the simulator's latency plumbing.

        ``kind``: ``READ``, ``WRITE`` (signaled, RC, not inlined),
        ``WR-INLINE`` (signaled, RC, inlined), or ``ECHO`` (round trip
        of unsignaled inlined WRITEs through a polling echo server).
        """
        p = self.p
        flight = lambda wire_ns: wire_ns + p.wire_delay_ns
        # the request leaves: PIO, egress engine, fetch, on the wire
        depart = lambda plan: (
            p.post_send_ns
            + self.pio_ns(plan)
            + plan.egress_ns
            + self.fetch_ns(plan)
            + (0 if plan.fetch_transactions is None else p.dma_read_latency_ns)
            + flight(self.wire_ns(plan.wire_bytes))
        )
        ack = (  # the responder generates the ACK
            p.nic_ingress_ack_ns
            + flight(self.packet_wire_ns(PacketKind.ACK, 0))
            + p.nic_ingress_ack_ns
        )
        cqe = self.dma_write_ns(CQE_BYTES) + p.dma_write_latency_ns + p.cq_poll_ns
        if kind == "READ":
            return (
                depart(plan_for(p, RC, Opcode.READ, False, payload))
                + p.nic_ingress_read_ns
                + self.dma_read_ns(payload)
                + p.dma_read_latency_ns
                + p.nic_egress_ns
                + flight(self.packet_wire_ns(PacketKind.READ_RESP, payload))
                + p.nic_ingress_resp_ns
                + self.dma_write_ns(payload)
                + p.dma_write_latency_ns
                + cqe
            )
        if kind in ("WRITE", "WR-INLINE"):
            plan = plan_for(p, RC, Opcode.WRITE, kind == "WR-INLINE", payload)
            return depart(plan) + p.nic_ingress_write_ns + ack + cqe
        if kind == "ECHO":
            # As ``baselines/echo.py`` runs WR-WR: each side finds the
            # landed WRITE by polling its own memory (4 cache probes),
            # and the client stamps an echo once its own post returns —
            # after the driver call and the WQE's PIO.
            plan = plan_for(p, UC, Opcode.WRITE, True, payload)
            one_way = (
                depart(plan)
                + p.nic_ingress_write_ns
                + self.dma_write_ns(payload)
                + p.dma_write_latency_ns
                + 4 * p.poll_check_ns
            )
            return 2 * one_way - p.post_send_ns - self.pio_ns(plan)
        raise ValueError("unknown latency kind %r" % kind)

    def pilaf_get(self, value_size: int = 32) -> Prediction:
        """Pilaf-em-OPT GETs: 1.6 bucket READs + 1 value READ."""
        reads = 2.6
        return _predict(
            {
                "nic_ingress": reads * self.p.nic_ingress_read_ns,
                "dma": 1.6 * self.dma_read_ns(BUCKET_BYTES)
                + self.dma_read_ns(value_size),
                "nic_egress": reads * self.p.nic_egress_ns,
            }
        )

    def client_cpu_ns_per_op(self, system: str, get_fraction: float = 0.95) -> float:
        """CPU nanoseconds a *client* burns per operation (Section 5.6).

        The paper's point: READ-based designs look CPU-free because
        they bypass the server, but 'issuing extra READs adds CPU
        overhead at the Pilaf and FaRM-KV clients' — each dependent
        READ costs a post plus a completion poll.  HERD shifts that
        work to the server, 'making more room for application
        processing at the clients'.
        """
        p = self.p
        post = p.post_send_ns + self.pio_ns(plan_for(p, RC, Opcode.READ, False, 0))
        poll = p.cq_poll_ns
        if system == "HERD":
            get = p.post_recv_ns + post + poll
            put = get
        elif system == "Pilaf":
            get = 2.6 * (post + poll)                     # dependent READs
            put = p.post_recv_ns + post + poll            # SEND/RECV
        elif system == "FaRM":
            get = post + poll                             # one READ
            put = post + 4 * p.poll_check_ns              # WRITE + poll ack
        elif system == "FaRM-VAR":
            get = 2 * (post + poll)
            put = post + 4 * p.poll_check_ns
        else:
            raise ValueError("unknown system %r" % system)
        return get_fraction * get + (1 - get_fraction) * put

    def farm_get(self, value_size: int = 32, inline_values: bool = True) -> Prediction:
        """FaRM-em GETs: one neighborhood READ (+ a value READ in VAR)."""
        item = value_size if inline_values else 8  # SP: an 8-byte pointer
        span = HopscotchTable.NEIGHBORHOOD * (KEY_BYTES + item)
        demands = {
            "nic_ingress": self.p.nic_ingress_read_ns,
            "dma": self.dma_read_ns(span),
            "wire": self.packet_wire_ns(PacketKind.READ_RESP, span),
        }
        if not inline_values:
            demands["nic_ingress"] *= 2
            demands["dma"] += self.dma_read_ns(value_size)
            demands["wire"] += self.packet_wire_ns(PacketKind.READ_RESP, value_size)
        return _predict(demands)
