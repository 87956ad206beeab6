"""Wires a full HERD deployment onto a simulated fabric.

Mirrors the paper's setup (Section 5.1): one server machine running NS
server processes (each on its own core), client processes spread over a
set of client machines, one UC QP per client process at the server (the
initializer's connections), and NS UD QPs per client for responses.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.result import RunResult, collect
from repro.obs.report import RunReport
from repro.faults.rng import child_rng, derive_seed
from repro.hw import APT, HardwareProfile
from repro.sim import RateMeter
from repro.verbs import Testbed, Transport
from repro.workloads.ycsb import Workload, keyed_values
from repro.herd.client import HerdClientProcess
from repro.herd.config import HerdConfig, route_key
from repro.herd.region import RequestRegion
from repro.herd.server import HerdServerProcess


class HaRuntime:
    """Everything the cluster builds only when ``replication_factor > 1``.

    Held as ``cluster.ha`` (None in an unreplicated cluster, so the
    classic simulation constructs no HA machinery at all — not even the
    extra machines — and stays event-for-event identical).
    """

    def __init__(self) -> None:
        #: replica id -> RdmaDevice (index 0 is the classic server)
        self.devices = []
        #: replica id -> RequestRegion on that replica's machine
        self.regions = []
        #: replica id -> [HerdServerProcess per partition]
        self.replica_servers = []
        #: partition -> PartitionGroup (cross-replica checker evidence)
        self.groups = []
        #: replica id -> HaNode (replication dataplane)
        self.nodes = []
        self.monitor = None  # LeaseMonitor


class HerdCluster(Testbed):
    """A complete HERD system on one simulated fabric."""

    def __init__(
        self,
        config: Optional[HerdConfig] = None,
        profile: HardwareProfile = APT,
        n_client_machines: int = 17,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else HerdConfig()
        self.profile = profile
        super().__init__(profile, n_client_machines, seed)
        self.region: Optional[RequestRegion] = None
        #: ElasticRuntime (repro.elastic) when n_active_partitions is
        #: set; None keeps the classic static sharding
        self.elastic = None
        #: QosRuntime (repro.qos) when ``config.qos`` is set; None keeps
        #: the classic admit-everything server loop
        self.qos_runtime = None
        self._wired = False
        # Replica machines (rep1..rep{rf-1}) and the lease monitor get
        # their own NICs on the same fabric; their cache RNGs are named
        # child streams of the cluster seed so enabling replication
        # cannot perturb the classic machines' draws.
        self.ha: Optional[HaRuntime] = None
        rf = self.config.replication_factor
        if rf > 1:
            self._ha_devices = [
                self.add_machine("rep%d" % r, derive_seed(seed, "ha.rep%d" % r))
                for r in range(1, rf)
            ]
            self._monitor_device = self.add_machine(
                "monitor", derive_seed(seed, "ha.monitor")
            )

    # ------------------------------------------------------------------

    def add_clients(self, n: int, workload: Workload, arrival_factory=None) -> None:
        """Create ``n`` client processes, round-robin over machines.

        ``arrival_factory(cid, rng)`` (optional) returns an open-loop
        :class:`repro.workloads.ArrivalProcess` for client ``cid``; the
        rng is a named child stream of the cluster seed, so attaching
        arrivals never perturbs workload or retry draws.  Without a
        factory clients run the paper's closed loop.
        """
        if self._wired:
            raise RuntimeError("cannot add clients after wiring")
        for i in range(n):
            cid = len(self.clients)
            stream = workload.stream(seed=self.seed * 1_000_003 + cid)
            client = HerdClientProcess(
                cid,
                self.client_device(cid),
                self.config,
                stream,
                retry_rng=child_rng(self.seed, "client%d.retry" % cid),
            )
            if arrival_factory is not None:
                client.arrivals = arrival_factory(
                    cid, child_rng(self.seed, "qos.client%d.arrivals" % cid)
                )
            self.clients.append(client)

    def wire(self) -> None:
        """Create the request region, server processes, and all QPs."""
        if self._wired:
            return
        if not self.clients:
            raise RuntimeError("add clients before wiring")
        nc = len(self.clients)
        self.region = RequestRegion(self.sim, self.server_device, self.config, nc)
        if self.config.request_transport == "DC":
            # Dynamically Connected: every client addresses one shared
            # DC target at the server, so the server NIC caches a
            # single responder context however many clients exist.
            dct = self.server_device.create_qp(Transport.DC)
            for client in self.clients:
                client_qp = client.device.create_qp(Transport.DC)
                client.uc_qp = client_qp
                client.dct_ah = ("server", dct.qpn)
                client.region = self.region
        else:
            qos = self.config.qos
            if qos is not None and qos.qp_pool is not None and qos.qp_pool < nc:
                # Bounded QP pool (repro.qos): clients share a fixed set
                # of server-side UC QPs round-robin, so client count no
                # longer scales the server NIC's connected-QP footprint
                # (the Figure 12 QP-cache cliff).  Sharing is safe for
                # requests: the server never sends on these QPs, and
                # inbound WRITEs resolve their MR by raddr/rkey alone.
                pool = [
                    self.server_device.create_qp(Transport.UC)
                    for _ in range(qos.qp_pool)
                ]
                for client in self.clients:
                    server_qp = pool[client.client_id % len(pool)]
                    client_qp = client.device.create_qp(Transport.UC)
                    client_qp.connect("server", server_qp.qpn)
                    if server_qp.peer is None:
                        # the pool QP's peer is inert (the server never
                        # sends on it); aim it at its first client so
                        # the QP reaches RTS like any connected QP
                        server_qp.connect(client.device.machine.name, client_qp.qpn)
                    client.uc_qp = client_qp
                    client.region = self.region
            else:
                # The initializer's UC connections: one per client process.
                for client in self.clients:
                    _server_qp, client.uc_qp = self.connect(
                        self.server_device, client.device, Transport.UC
                    )
                    client.region = self.region
        # Server processes, each with the response AH table.
        for s in range(self.config.n_server_processes):
            ahs = [
                (client.device.machine.name, client.ud_qps[s].qpn)
                for client in self.clients
            ]
            self.servers.append(
                HerdServerProcess(s, self.server_device, self.region, self.config, ahs)
            )
        if self.config.qos is not None:
            from repro.qos import QosRuntime

            self.qos_runtime = QosRuntime(
                self.config.qos, self.config.n_server_processes
            )
            self.region.stamp_arrivals = True
            for server in self.servers:
                server.admission = self.qos_runtime.partition(server.index)
        if self.config.replication_factor > 1:
            self._wire_ha()
        self._wired = True

    def _wire_ha(self) -> None:
        """Backup replicas, the replication mesh, and the lease monitor.

        Replica r of partition s is a *full* HerdServerProcess on
        machine ``rep<r>`` with its own request region and MICA store;
        clients answer it on UD lane ``r*NS + s`` and reach its region
        over a dedicated UC QP per (client, replica) pair.  See
        docs/HA.md for the dataplane layout.
        """
        from repro.ha import (
            HaNode,
            LeaseMonitor,
            PartitionGroup,
            ReplicaMap,
            ReplicaRole,
        )

        cfg = self.config
        ns = cfg.n_server_processes
        rf = cfg.replication_factor
        nc = len(self.clients)
        ha = HaRuntime()
        ha.devices = [self.server_device] + self._ha_devices
        ha.regions = [self.region]
        ha.replica_servers = [self.servers]
        for r in range(1, rf):
            device = ha.devices[r]
            region = RequestRegion(self.sim, device, cfg, nc)
            ha.regions.append(region)
            servers_r = []
            for s in range(ns):
                ahs = [
                    (client.device.machine.name, client.ud_qps[r * ns + s].qpn)
                    for client in self.clients
                ]
                servers_r.append(HerdServerProcess(s, device, region, cfg, ahs))
            ha.replica_servers.append(servers_r)
        # Per-client UC connections into each backup's request region
        # (replica 0 reuses the classic connection).
        for client in self.clients:
            client.ha_map = ReplicaMap(ns, rf)
            client.ha_regions = ha.regions
            client.ha_uc_qps = [client.uc_qp]
            for r in range(1, rf):
                _server_qp, client_qp = self.connect(
                    ha.devices[r], client.device, Transport.UC
                )
                client.ha_uc_qps.append(client_qp)
        # Roles: one per (partition, replica), grouped per partition.
        roles_by_replica: List[List[ReplicaRole]] = [[] for _ in range(rf)]
        for s in range(ns):
            group = PartitionGroup(s, cfg)
            ha.groups.append(group)
            for r in range(rf):
                role = ReplicaRole(s, r, cfg, group)
                server = ha.replica_servers[r][s]
                role.server = server
                server.ha_role = role
                roles_by_replica[r].append(role)
        ha.nodes = [
            HaNode(r, ha.devices[r], cfg, roles_by_replica[r]) for r in range(rf)
        ]
        # The RC replication mesh: one connected QP pair per machine pair.
        for a in range(rf):
            for b in range(a + 1, rf):
                qp_a, qp_b = self.connect(
                    ha.devices[a],
                    ha.devices[b],
                    Transport.RC,
                    ha.nodes[a].mesh_cq,
                    ha.nodes[b].mesh_cq,
                )
                ha.nodes[a].add_peer(b, qp_a)
                ha.nodes[b].add_peer(a, qp_b)
        # The lease monitor, with control paths to every replica and
        # out-of-band config fan-out to every client.
        ha.monitor = LeaseMonitor(self.sim, self._monitor_device, cfg, ns)
        for r in range(rf):
            ha.monitor.replica_ahs[r] = (
                ha.devices[r].machine.name,
                ha.nodes[r].ctrl_qp.qpn,
            )
            ha.nodes[r].monitor_ah = ("monitor", ha.monitor.ud_qp.qpn)
        for client in self.clients:
            ha.monitor.config_listeners.append(client.ha_on_config)
        self.ha = ha
        if cfg.n_active_partitions is not None:
            self._wire_elastic(ha)

    def _wire_elastic(self, ha: HaRuntime) -> None:
        """The shard-map coordinator and one ElasticAgent per machine.

        The coordinator runs beside the lease monitor (same machine,
        same NIC) so it can read the monitor's live primary/epoch view
        synchronously; agents hang off their machine's HaNode and share
        its RC mesh and UD control QP.  Clients start on the initial
        striped map and hear newer ones via ``map_listeners`` — the
        elastic sibling of the monitor's config fan-out.
        """
        from repro.elastic import ElasticAgent, ElasticRuntime, ShardCoordinator, ShardMap

        cfg = self.config
        rf = cfg.replication_factor
        initial = ShardMap.striped(cfg.n_active_partitions)
        coordinator = ShardCoordinator(
            self.sim, self._monitor_device, cfg, ha.monitor, initial
        )
        agents = []
        for r in range(rf):
            agent = ElasticAgent(ha.nodes[r], initial)
            agent.coordinator_ah = ("monitor", coordinator.ud_qp.qpn)
            ha.nodes[r].elastic = agent
            agents.append(agent)
            coordinator.node_ahs[r] = ha.monitor.replica_ahs[r]
        for client in self.clients:
            client.shard_map = initial
            coordinator.map_listeners.append(client.elastic_on_map)
        self.elastic = ElasticRuntime(coordinator, agents)

    def install_faults(self, plan):
        """Wire first: crash rules must resolve server processes."""
        self.wire()
        return super().install_faults(plan)

    # ------------------------------------------------------------------

    def preload(self, items: range, value_size: int) -> None:
        """Load items directly into the server partitions (offline warm
        start, like running a load phase before the measurement)."""
        self.wire()
        ns = self.config.n_server_processes
        shard_map = self.elastic.shard_map if self.elastic is not None else None
        replica_servers = (
            self.ha.replica_servers if self.ha is not None else [self.servers]
        )
        for kh, value in keyed_values(items, value_size):
            for servers in replica_servers:
                servers[route_key(kh, ns, shard_map)].store.put(kh, value)

    # ------------------------------------------------------------------

    def attach_meter(self, client, record) -> None:
        def hook(op, latency, success, now, _prev=client.response_hook):
            record(now, latency)
            if _prev is not None:
                _prev(op, latency, success, now)

        client.response_hook = hook

    def start_servers(self) -> None:
        super().start_servers()
        if self.ha is not None:
            for servers in self.ha.replica_servers[1:]:
                for server in servers:
                    server.start()
            for node in self.ha.nodes:
                node.start()
            self.ha.monitor.start()
            if self.elastic is not None:
                self.elastic.coordinator.start()

    def run(self, warmup_ns: float = 50_000.0, measure_ns: float = 200_000.0) -> RunResult:
        """Start every process and measure one window."""
        self.wire()
        window_end = warmup_ns + measure_ns
        per_server = [RateMeter(warmup_ns, window_end) for _ in self.servers]
        for server in self.servers:
            def shook(client_id, op, now, _m=per_server[server.index], _prev=server.completion_hook):
                _m.record(now)
                if _prev is not None:
                    _prev(client_id, op, now)

            server.completion_hook = shook
        meter, latencies = self.run_window(warmup_ns, measure_ns)
        machine = self.server_device.machine
        elapsed = self.sim.now
        qos_extras = {}
        if self.qos_runtime is not None:
            qos_extras = dict(
                shed=float(self.qos_runtime.total_shed),
                offered=float(sum(c.offered for c in self.clients)),
                overflow_dropped=float(
                    sum(c.overflow_dropped for c in self.clients)
                ),
                retry_after_nacks=float(
                    sum(c.retry_after_nacks for c in self.clients)
                ),
                rejected=float(sum(c.rejected for c in self.clients)),
            )
        return collect(
            meter,
            latencies,
            measure_ns,
            per_server=per_server,
            report=RunReport.from_sim(self.sim, name="herd-cluster"),
            server_qp_cache_hit_rate=machine.qp_cache.hit_rate(),
            # Where the server machine's time went: the paper's
            # bottleneck narrative in one dict (Section 5.7: at peak,
            # the PIO path saturates first).
            util_nic_ingress=machine.nic_ingress.utilization(elapsed),
            util_nic_egress=machine.nic_egress.utilization(elapsed),
            util_pio=machine.pcie.pio.utilization(elapsed),
            util_dma=machine.pcie.dma.utilization(elapsed),
            noops=float(sum(s.noops_pushed for s in self.servers)),
            get_misses=float(sum(c.get_misses for c in self.clients)),
            retries=float(sum(c.retries for c in self.clients)),
            abandoned=float(sum(c.abandoned for c in self.clients)),
            server_crashes=float(sum(s.crashes for s in self.servers)),
            server_recoveries=float(sum(s.recoveries for s in self.servers)),
            **qos_extras,
        )
