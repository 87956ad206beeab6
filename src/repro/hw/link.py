"""The switched fabric connecting machines.

InfiniBand/RoCE links are lossless (credit-based / priority flow
control, Section 2.2.3), so the fabric never drops packets on its own.
Each machine has one full-duplex port: a transmit-side
:class:`~repro.sim.FifoServer` models serialisation onto the wire, and a
fixed propagation + switch delay follows.  The port is a deterministic
FIFO and the fault verdict is taken at transmit time, so the arrival
instant is known at admission: one packet hop is one calendar entry.

Failure injection happens here.  The general mechanism is a *fault
hook* — ``fn(src, dst, packet, wire_bytes) -> Optional[LinkVerdict]`` —
installed by :mod:`repro.faults`; it can drop a packet before the wire,
corrupt it (the receiving NIC's ICRC check discards it after it has
burned wire and ingress capacity), duplicate it, or add extra delivery
delay (reordering).  The paper's only loss source — bit errors, whose
affected messages are simply dropped for the application to retry — is
a plan with one drop rule (``FaultPlan.uniform_loss``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.sim import FifoServer, Simulator
from repro.hw.params import HardwareProfile

#: A delivery callback: receives the packet object.
DeliverFn = Callable[[Any], None]


@dataclass
class LinkVerdict:
    """What the fault layer decided about one packet transmission.

    ``drop`` loses the packet before serialisation (egress bit error /
    link down).  ``corrupt`` delivers the packet with its ``corrupt``
    flag set — the receiving NIC discards it after the ICRC check, so
    the packet still consumes wire and ingress-engine capacity.
    ``duplicate`` delivers that many extra copies, each ``dup_delay_ns``
    apart.  ``extra_delay_ns`` is added to the propagation delay, which
    reorders the packet relative to later traffic.  ``tx_mult`` scales
    the serialisation time (a degraded, slow-but-alive link); 1.0 is
    neutral.
    """

    drop: bool = False
    corrupt: bool = False
    duplicate: int = 0
    extra_delay_ns: float = 0.0
    dup_delay_ns: float = 0.0
    tx_mult: float = 1.0


#: A fault hook: judges one transmission, None means "no opinion".
FaultHook = Callable[[str, str, Any, int], Optional[LinkVerdict]]


class Port:
    """One machine's full-duplex fabric port."""

    def __init__(self, sim: Simulator, profile: HardwareProfile, name: str) -> None:
        self.sim = sim
        self.profile = profile
        self.tx = FifoServer(sim, name + ".tx")
        self.deliver: DeliverFn = _unattached
        self.tx_packets = 0
        self.tx_bytes = 0

    def arrive(self, packet: Any) -> None:
        """A packet's wire flight ended here.

        The handler is looked up now, not when the packet left: a device
        may attach to the machine while the packet is in flight.
        """
        self.deliver(packet)


def _unattached(packet: Any) -> None:
    raise RuntimeError("port has no delivery handler attached")


class Fabric:
    """A non-blocking crossbar switch between named machines.

    The models in this repo run client counts into the hundreds; a real
    cluster has per-link contention, but the paper's bottlenecks are all
    at the *server's* NIC and PCIe bus, so a crossbar with per-port
    serialisation captures the relevant contention (the server's own
    port is shared by all of its traffic).

    A transmission books the source port for the serialisation time and
    schedules the delivery at ``serialisation end + wire delay`` in the
    same calendar entry; a duplicated packet books one more per copy.
    """

    def __init__(self, sim: Simulator, profile: HardwareProfile) -> None:
        self.sim = sim
        self.profile = profile
        # Cached once, like FifoServer's: observability attaches in
        # Simulator.__init__, before any fabric exists.
        self.tracer = getattr(sim, "tracer", None)
        self.ports: Dict[str, Port] = {}
        #: the fault layer (repro.faults installs this): the one
        #: decision point for every loss source
        self.fault_hook: Optional[FaultHook] = None
        self.dropped = 0
        self.corrupted = 0
        self.duplicated = 0

    @property
    def lossy(self) -> bool:
        """Whether any loss source is configured.

        Reliable transports arm their retransmission timers off this —
        in a lossless run the timers would only slow the simulator.
        """
        return self.fault_hook is not None

    def attach(self, name: str, deliver: DeliverFn) -> Port:
        """Register machine ``name`` and its packet-delivery handler."""
        if name in self.ports:
            raise ValueError("machine %r already attached" % name)
        port = Port(self.sim, self.profile, name)
        port.deliver = deliver
        self.ports[name] = port
        return port

    def transmit(self, src: str, dst: str, packet: Any, wire_bytes: int) -> None:
        """Send ``packet`` from ``src`` to ``dst``.

        Serialisation happens on the source port; after the propagation
        delay the packet is handed to the destination's handler.  Both
        machines must be attached: an unknown one raises here, before
        the packet is counted or judged (``KeyError`` for the source,
        ``ValueError`` naming both ends for the destination).
        """
        ports = self.ports
        port = ports[src]
        dst_port = ports.get(dst)
        if dst_port is None:
            raise ValueError(
                "cannot transmit from %r to %r: no such machine on the fabric"
                % (src, dst)
            )
        port.tx_packets += 1
        port.tx_bytes += wire_bytes
        profile = self.profile
        tx_time = wire_bytes / profile.link_bw
        delay = profile.wire_delay_ns
        hook = self.fault_hook
        verdict = None if hook is None else hook(src, dst, packet, wire_bytes)
        if verdict is None:
            corrupt = False
            duplicates = 0
        else:
            if verdict.drop:
                self.dropped += 1
                return
            corrupt = verdict.corrupt
            if corrupt:
                self.corrupted += 1
            if verdict.tx_mult != 1.0:
                tx_time *= max(1.0, verdict.tx_mult)
            delay += verdict.extra_delay_ns
            duplicates = verdict.duplicate
        try:
            # The flag is re-stamped on every (re)transmission of the
            # same packet object, so a retransmit starts clean.
            packet.corrupt = corrupt
        except AttributeError:
            pass  # not a verbs Packet (the fabric carries any object)
        tracer = self.tracer
        if tracer is not None:
            tracer.span(
                "wire %s->%s" % (src, dst),
                self.sim.now,
                self.sim.now + tx_time + profile.wire_delay_ns,
                "%d bytes" % wire_bytes,
            )
        port.tx.serve(tx_time, packet, delay, dst_port.arrive)
        # Duplicates consume wire capacity like any other packet.
        for copy in range(duplicates):
            self.duplicated += 1
            dup_delay = delay + (copy + 1) * verdict.dup_delay_ns
            port.tx.serve(tx_time, packet, dup_delay, dst_port.arrive)
