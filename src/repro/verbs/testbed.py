"""The testbed every system under test shares (the paper's Section 5.1).

One server machine, N client machines, one fabric: the comparison of
HERD against Pilaf, FaRM and the ECHO variants only means something
because they all run on the same substrate.  :class:`Testbed` is that
substrate — the star topology, client placement, connected-QP wiring,
the measurement window and fault attachment — and every ``*Cluster`` is
a subclass that adds only its protocol: which processes run where and
which QPs they talk over.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.hw import Fabric, HardwareProfile, Machine
from repro.sim import LatencyRecorder, RateMeter, Simulator
from repro.verbs.device import RdmaDevice, connect_pair

#: what a window's meters are fed: ``record(now, latency)``
Record = Callable[[float, float], None]


class Testbed:
    """One server machine and ``n_client_machines`` clients on a fabric.

    A subclass builds its client and server processes into
    :attr:`clients` and :attr:`servers` (anything with a ``start()``),
    wires their QPs through :meth:`connect`, and — when its clients
    report completions through something other than a
    ``completed_hook(now, latency)`` attribute — overrides
    :meth:`attach_meter`.
    """

    def __init__(
        self, profile: HardwareProfile, n_client_machines: int, seed: int = 0
    ) -> None:
        self.seed = seed
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, profile)
        #: machine name -> device, for every machine on the fabric
        #: (what a fault plan's machine names resolve against)
        self.devices: Dict[str, RdmaDevice] = {}
        self.server_device = self.add_machine("server", seed)
        self.client_devices = [
            self.add_machine("cm%d" % i, seed + i + 1)
            for i in range(n_client_machines)
        ]
        self.clients: List = []
        self.servers: List = []
        self.injector = None  # set by install_faults()

    def add_machine(self, name: str, cache_seed: int) -> RdmaDevice:
        """Attach one more machine (and its NIC) to the fabric."""
        device = RdmaDevice(
            Machine(self.sim, self.fabric, name, cache_seed=cache_seed)
        )
        self.devices[name] = device
        return device

    def client_device(self, cid: int) -> RdmaDevice:
        """Client processes are dealt round-robin over the machines."""
        return self.client_devices[cid % len(self.client_devices)]

    #: ``connect(server_dev, client_dev, transport[, server_recv_cq[,
    #: client_recv_cq]])`` — the one way a connected QP pair is made
    #: (:func:`~repro.verbs.device.connect_pair`: the server side's QP
    #: is created first, optionally on a shared receive CQ)
    connect = staticmethod(connect_pair)

    def install_faults(self, plan):
        """Install a :class:`repro.faults.FaultPlan` on this testbed.

        Returns the live injector, also kept as ``self.injector`` for
        counter inspection after the run.
        """
        from repro.faults import FaultInjector

        self.injector = FaultInjector(
            plan, self.fabric, devices=self.devices, servers=self.servers
        )
        return self.injector

    # -- the measurement window ----------------------------------------

    def attach_meter(self, client, record: Record) -> None:
        """Route ``client``'s completions into the window's meters."""
        client.completed_hook = record

    def start_servers(self) -> None:
        for server in self.servers:
            server.start()

    def open_window(
        self, warmup_ns: float, measure_ns: float
    ) -> Tuple[RateMeter, LatencyRecorder]:
        """Meter ``[warmup, warmup + measure)`` and start every process.

        Clients start in cid order, then the servers — the order fixes
        the calendar's tie-breaks, so it is part of every pinned result.
        A ``sim.tracer`` swapped in after the stations were built (they
        cache it) would trace nothing, so that raises.
        """
        if getattr(self.sim, "tracer", None) is not self.fabric.tracer:
            raise RuntimeError(
                "sim.tracer changed after the testbed was built; its stations "
                "keep the tracer they were built with. Attach it first: build "
                "inside repro.obs.capture(trace=True)"
            )
        window_end = warmup_ns + measure_ns
        meter = RateMeter(warmup_ns, window_end)
        latencies = LatencyRecorder(warmup_ns, window_end)

        def record(now: float, latency: float) -> None:
            meter.record(now)
            latencies.record(now, latency)

        for client in self.clients:
            self.attach_meter(client, record)
            client.start()
        self.start_servers()
        return meter, latencies

    def run_window(
        self, warmup_ns: float, measure_ns: float
    ) -> Tuple[RateMeter, LatencyRecorder]:
        """:meth:`open_window`, then simulate to the window's end."""
        meters = self.open_window(warmup_ns, measure_ns)
        self.sim.run(until=warmup_ns + measure_ns)
        return meters
