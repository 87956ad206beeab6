"""Hardware profiles and calibration constants.

All times are nanoseconds; all sizes are bytes; bandwidths are bytes per
nanosecond (1 B/ns = 8 Gbps).  The constants are calibrated so that the
simulator reproduces the microbenchmark numbers the paper reports for
ConnectX-3 RNICs (see DESIGN.md §4):

* inbound WRITE rate  ~= 35 Mops  (Figure 3b)
* inbound READ rate   ~= 26 Mops  (Figure 3b)
* outbound READ rate  ~= 22 Mops  (Figure 4b)
* SEND/SEND echo rate ~= 21 Mops  (Figure 5)
* verb latency        ~= 1-2 us   (Figure 2b)
* ``post_send()``     ~= 150 ns, DRAM access 60-120 ns (Section 4.1.1)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class HardwareProfile:
    """Every constant the hardware models need, for one cluster."""

    name: str

    # ---- link / fabric -------------------------------------------------
    #: usable link bandwidth, bytes per ns (56 Gbps => 7 B/ns)
    link_bw: float
    #: one-way propagation + switch traversal for a small packet
    wire_delay_ns: float
    #: per-packet wire overhead (LRH + BTH + CRCs)
    wire_header_bytes: int = 30
    #: extra wire bytes for UD datagrams (DETH); RoCE adds a GRH too
    ud_header_bytes: int = 8
    #: whether a 40-byte GRH travels on the wire for UD (RoCE does this)
    roce: bool = False

    # ---- PCIe ----------------------------------------------------------
    #: PIO (programmed IO): fixed doorbell cost ...
    pio_base_ns: float = 16.0
    #: ... plus this much per 64-byte write-combining cacheline
    pio_per_cacheline_ns: float = 12.0
    #: DMA read (non-posted): per-transaction engine occupancy
    dma_read_ns: float = 25.0
    #: DMA read: extra pipeline latency (a PCIe round trip), not occupancy
    dma_read_latency_ns: float = 250.0
    #: DMA write (posted): per-transaction engine occupancy
    dma_write_ns: float = 15.0
    #: DMA write: extra pipeline latency
    dma_write_latency_ns: float = 50.0
    #: atomic read-modify-write: extra *locked* occupancy beyond the
    #: read and write-back.  ConnectX NICs serialise IB atomics with an
    #: internal lock that stalls the DMA engine for the whole PCIe
    #: round trip, which is why CmpSwap/FetchAdd run an order of
    #: magnitude slower than READs (~2.7 Mops on ConnectX-3 vs 26 Mops;
    #: Kalia et al., "Design Guidelines", and Section 3.2.2's PCIe
    #: argument).  25 + 330 + 15 + payload => ~372 ns per atomic.
    pcie_atomic_ns: float = 330.0
    #: PCIe data bandwidth, bytes/ns (PCIe 3.0 x8 ~= 7.88)
    pcie_bw: float = 7.88
    cacheline_bytes: int = 64

    # ---- RNIC processing engines (per-operation occupancy) -------------
    nic_egress_ns: float = 28.5        # inline WRITE/SEND issue: 35 Mops
    nic_egress_read_ns: float = 45.5   # outbound READ issue: 22 Mops
    nic_ingress_write_ns: float = 28.5  # inbound WRITE: 35 Mops
    nic_ingress_read_ns: float = 38.5   # inbound READ request: 26 Mops
    nic_ingress_send_ns: float = 44.0   # inbound SEND + RECV match: 21 Mops end to end
    nic_ingress_resp_ns: float = 20.0   # READ response / ACK bookkeeping
    nic_ingress_ack_ns: float = 10.0    # pure ACK (RC) processing
    nic_ingress_atomic_ns: float = 40.0  # inbound CmpSwap/FetchAdd decode
    #: DMA-read transactions needed to egress a non-inlined payload
    #: (WQE fetch + payload fetch).  This base cost vs PIO's
    #: per-cacheline cost places the inline/DMA crossover between 144
    #: and 192 bytes for UD SENDs — which is why HERD's response
    #: inlining cutoff is 144 B on Apt (Section 5.3)
    non_inline_fetch_transactions: int = 2

    # ---- WQE geometry (determines PIO cachelines) ----------------------
    wqe_ctrl_bytes: int = 16        # control segment
    wqe_raddr_bytes: int = 16       # remote address segment (RDMA verbs)
    wqe_av_bytes: int = 48          # UD address vector segment
    wqe_data_ptr_bytes: int = 16    # scatter/gather pointer (non-inline)
    wqe_inline_hdr_bytes: int = 4   # inline data header
    wqe_atomic_bytes: int = 16      # atomic segment (compare/swap operands)
    #: receive buffers for UD leave room for a 40-byte GRH
    grh_bytes: int = 40

    # ---- QP context cache (on-NIC SRAM) ---------------------------------
    #: capacity in context units (responder ctx = 1 unit, requester = 2)
    qp_cache_units: int = 280
    qp_requester_units: int = 2
    qp_responder_units: int = 1
    #: added engine occupancy per context *unit* fetched over PCIe on a
    #: miss — requester contexts are larger, so their misses hurt more
    #: (the asymmetry behind Figure 6)
    qp_cache_miss_ns_per_unit: float = 75.0

    # ---- transport limits ----------------------------------------------
    max_inline: int = 256
    max_outstanding_reads: int = 16
    mtu: int = 4096

    # ---- CPU / memory ---------------------------------------------------
    #: CPU-side driver cost of post_send(); the WQE's PIO write on the
    #: shared bus adds ~30-40 ns, totalling the ~150 ns the paper reports
    post_send_ns: float = 110.0
    #: CPU cost per posted RECV, assuming batched postings (one doorbell
    #: amortised over a batch), as optimised SEND/RECV code does
    post_recv_ns: float = 60.0
    dram_ns: float = 90.0          # random DRAM access (60-120 ns in paper)
    prefetch_hit_ns: float = 10.0  # access already covered by a prefetch
    poll_check_ns: float = 2.5     # checking one request slot (L3-resident)
    cq_poll_ns: float = 30.0       # polling a completion queue entry
    #: CPU memcpy into a registered staging buffer (un-inlined sends)
    memcpy_bytes_per_ns: float = 16.0
    prefetch_issue_ns: float = 1.0  # issuing one software prefetch

    # ---- HERD policy ----------------------------------------------------
    #: value size at which HERD switches responses to non-inlined SENDs
    herd_inline_cutoff: int = 144

    def replace(self, **kwargs) -> "HardwareProfile":
        """A copy of this profile with some constants overridden."""
        return dataclasses.replace(self, **kwargs)

    # -- derived geometry helpers ----------------------------------------

    def pio_cachelines(self, wqe_bytes: int) -> int:
        """Write-combining cachelines needed to PIO a WQE of this size."""
        if wqe_bytes <= 0:
            return 0
        cl = self.cacheline_bytes
        return -(-wqe_bytes // cl)  # ceil division

    def pio_ns(self, wqe_bytes: int) -> float:
        """PIO cost of pushing one WQE through the write-combining path."""
        return self.pio_base_ns + self.pio_per_cacheline_ns * self.pio_cachelines(wqe_bytes)

    def wire_bytes(self, payload_bytes: int, ud: bool = False) -> int:
        """Bytes this packet occupies on the wire."""
        size = self.wire_header_bytes + payload_bytes
        if ud:
            size += self.ud_header_bytes
            if self.roce:
                size += self.grh_bytes
        return size


#: Emulab Apt: Xeon E5-2450, ConnectX-3 MX354A, 56 Gbps IB, PCIe 3.0 x8.
APT = HardwareProfile(
    name="apt",
    link_bw=7.0,          # 56 Gbps
    wire_delay_ns=600.0,
)

#: PRObE Susitna: Opteron 6272, ConnectX-3 MX313A, 40 Gbps RoCE, PCIe 2.0
#: x8.  The slower PCIe bus throttles PIO and DMA; RoCE carries a GRH.
SUSITNA = HardwareProfile(
    name="susitna",
    link_bw=5.0,          # 40 Gbps
    wire_delay_ns=650.0,
    roce=True,
    pio_base_ns=20.0,
    pio_per_cacheline_ns=24.0,   # PCIe 2.0 x8: half the PIO bandwidth
    dma_read_ns=40.0,
    dma_read_latency_ns=350.0,
    dma_write_ns=24.0,
    pcie_bw=3.2,                 # PCIe 2.0 x8 effective
    herd_inline_cutoff=192,
)
