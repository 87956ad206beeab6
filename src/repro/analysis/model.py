"""Closed-form throughput predictions from per-resource service demands.

Each prediction enumerates the serialised stations an operation
occupies at the *server* machine (the shared side of every experiment)
— NIC ingress and egress engines, the DMA engine, the PIO path, the
wire, and the polling cores — and returns the saturation throughput
``1 / max(demand)`` in Mops, along with the name of the binding
resource.  Client-side stations are assumed replicated enough not to
bind, matching the experiments' many-clients setups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hw.params import APT, HardwareProfile
from repro.kv.cuckoo import BUCKET_BYTES
from repro.kv.hopscotch import HopscotchTable
from repro.kv.interface import KEY_BYTES


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

    def _wqe_bytes(self, payload: int, inline: bool, rdma: bool, ud: bool) -> int:
        p = self.p
        size = p.wqe_ctrl_bytes
        if rdma:
            size += p.wqe_raddr_bytes
        if ud:
            size += p.wqe_av_bytes
        size += (p.wqe_inline_hdr_bytes + payload) if inline else p.wqe_data_ptr_bytes
        return size

    def pio_ns(self, payload: int, inline: bool, rdma: bool, ud: bool = False) -> float:
        return self.p.pio_ns(self._wqe_bytes(payload, inline, rdma, ud))

    def wire_ns(self, payload: int, ud: bool = False) -> float:
        return self.p.wire_bytes(payload, ud=ud) / self.p.link_bw

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
                "wire": self.wire_ns(payload),
            }
        )

    def inbound_read(self, payload: int) -> Prediction:
        """Figure 3: inbound READ rate at the server NIC."""
        return _predict(
            {
                "nic_ingress": self.p.nic_ingress_read_ns,
                "dma": self.dma_read_ns(payload),
                "nic_egress": self.p.nic_egress_ns,
                "wire": self.wire_ns(payload),
            }
        )

    def outbound_inline(self, payload: int, ud: bool = False) -> Prediction:
        """Figure 4: outbound inlined WRITE (UC) or SEND (UD) rate."""
        return _predict(
            {
                "pio": self.pio_ns(payload, inline=True, rdma=not ud, ud=ud),
                "nic_egress": self.p.nic_egress_ns,
                "wire": self.wire_ns(payload, ud=ud),
            }
        )

    def outbound_non_inline(self, payload: int, reliable: bool = False) -> Prediction:
        """Figure 4: outbound WRITE fetched over DMA."""
        transactions = self.p.non_inline_fetch_transactions + (1 if reliable else 0)
        return _predict(
            {
                "pio": self.pio_ns(payload, inline=False, rdma=True),
                "dma": self.dma_read_ns(payload, transactions),
                "nic_egress": self.p.nic_egress_ns,
                "wire": self.wire_ns(payload),
            }
        )

    def outbound_read(self, payload: int) -> Prediction:
        """Figure 4: outbound READ issue rate."""
        return _predict(
            {
                "pio": self.pio_ns(0, inline=False, rdma=True),
                "nic_egress": self.p.nic_egress_read_ns,
                # the responses return through this NIC's ingress + DMA
                "nic_ingress": self.p.nic_ingress_resp_ns,
                "dma_resp": self.dma_write_ns(payload),
                "wire": self.wire_ns(payload),
            }
        )

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
        (inlined below the cutoff); the cores poll, run MICA, and post.
        """
        p = self.p
        get_req = 18                      # LEN + keyhash
        put_req = 18 + value_size
        req_bytes = get_fraction * get_req + (1 - get_fraction) * put_req
        get_resp, put_resp = value_size, 1
        resp_bytes = get_fraction * get_resp + (1 - get_fraction) * put_resp
        resp_inline = resp_bytes <= p.herd_inline_cutoff

        per_access = p.prefetch_hit_ns if prefetch else p.dram_ns
        accesses = 2 * get_fraction + 1 * (1 - get_fraction)
        core_ns = (
            6 * p.poll_check_ns          # find + decode the slot
            + accesses * per_access      # MICA lookups
            + p.post_send_ns             # driver cost of the response
        )
        demands = {
            "nic_ingress": p.nic_ingress_write_ns,   # request WRITEs in
            "dma": self.dma_write_ns(req_bytes)      # requests land
            + (0 if resp_inline else self.dma_read_ns(resp_bytes, 3)),
            "nic_egress": p.nic_egress_ns,           # responses out
            "pio": self.pio_ns(
                int(resp_bytes) if resp_inline else 0, resp_inline, rdma=False, ud=True
            ),
            "cores": core_ns / cores,
            "wire_in": self.wire_ns(int(req_bytes)),
            "wire_out": self.wire_ns(int(resp_bytes), ud=True),
        }
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
        post = p.post_send_ns
        egress = p.nic_egress_ns
        flight = lambda size, ud=False: (
            self.wire_ns(size, ud=ud) + p.wire_delay_ns
        )
        cqe = self.dma_write_ns(32) + p.dma_write_latency_ns + p.cq_poll_ns
        if kind == "READ":
            return (
                post
                + self.pio_ns(0, inline=False, rdma=True)
                + p.nic_egress_read_ns
                + flight(16)
                + p.nic_ingress_read_ns
                + self.dma_read_ns(payload)
                + p.dma_read_latency_ns
                + egress
                + flight(payload)
                + p.nic_ingress_resp_ns
                + self.dma_write_ns(payload)
                + p.dma_write_latency_ns
                + cqe
            )
        if kind == "WRITE":
            return (
                post
                + self.pio_ns(0, inline=False, rdma=True)
                + egress
                + self.dma_read_ns(payload, self.p.non_inline_fetch_transactions + 1)
                + p.dma_read_latency_ns
                + flight(payload)
                + p.nic_ingress_write_ns
                + p.nic_ingress_ack_ns  # responder generates the ACK
                + flight(0)
                + p.nic_ingress_ack_ns
                + cqe
            )
        if kind == "WR-INLINE":
            return (
                post
                + self.pio_ns(payload, inline=True, rdma=True)
                + egress
                + flight(payload)
                + p.nic_ingress_write_ns
                + p.nic_ingress_ack_ns
                + flight(0)
                + p.nic_ingress_ack_ns
                + cqe
            )
        if kind == "ECHO":
            one_way = (
                post
                + self.pio_ns(payload, inline=True, rdma=True)
                + egress
                + flight(payload)
                + p.nic_ingress_write_ns
                + self.dma_write_ns(payload)
                + p.dma_write_latency_ns
            )
            poll = 8 * p.poll_check_ns
            return 2 * one_way + 2 * poll
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
        post = p.post_send_ns + self.pio_ns(0, inline=False, rdma=True)
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
            "wire": self.wire_ns(span),
        }
        if not inline_values:
            demands["nic_ingress"] *= 2
            demands["dma"] += self.dma_read_ns(value_size)
            demands["wire"] += self.wire_ns(value_size)
        return _predict(demands)
