"""A machine: CPU cores + DRAM + PCIe bus + RNIC engines + fabric port.

The RNIC itself is modelled as a set of serialised engines (ingress
processing, egress processing) sharing the machine's PCIe bus and a
QP-context cache.  The *protocol* run by those engines lives in
:mod:`repro.verbs`; this class only owns the timed resources.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import FifoServer, Simulator
from repro.hw.link import Fabric, Port
from repro.hw.memory import MemorySystem
from repro.hw.params import HardwareProfile
from repro.hw.pcie import PcieBus
from repro.hw.qpcache import QpContextCache


class Machine:
    """Timed hardware resources for one host and its RNIC."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        name: str,
        profile: Optional[HardwareProfile] = None,
        cores: int = 16,
        cache_seed: int = 0,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.profile = profile if profile is not None else fabric.profile
        self.cores = cores
        self.pcie = PcieBus(sim, self.profile, name + ".pcie")
        self.memory = MemorySystem(self.profile)
        #: RNIC packet-processing engines.  Ingress and egress are
        #: independent pipelines (the card services ~60 Mops total
        #: bidirectionally, Section 3.2.2).
        self.nic_ingress = FifoServer(sim, name + ".nic.rx")
        self.nic_egress = FifoServer(sim, name + ".nic.tx")
        self.qp_cache = QpContextCache(self.profile, seed=cache_seed)
        self.port: Port = fabric.attach(name, self._no_device)
        metrics = getattr(sim, "metrics", None)
        if metrics is not None:
            metrics.watch_qp_cache(name, self.qp_cache)

    def attach_packet_handler(self, handler: Callable[[Any], None]) -> None:
        """Install the verbs-layer packet handler (one per machine).

        The port delivers straight to it: an arriving packet costs no
        hop through this class.
        """
        self.port.deliver = handler

    def _no_device(self, packet: Any) -> None:
        raise RuntimeError("machine %r has no verbs device attached" % self.name)

    def transmit(self, dst: str, packet: Any, wire_bytes: int) -> None:
        """Serialise a packet onto this machine's port toward ``dst``."""
        self.fabric.transmit(self.name, dst, packet, wire_bytes)
