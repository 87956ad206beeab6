"""The fault injector: attaches a :class:`FaultPlan` to a live system.

One injector owns all the runtime state of an installed plan: the named
child RNG streams that decide which packets a rate rule hits, the hook
it places on the fabric's transmit path, per-device RNR hooks, and the
timed one-shot faults (NIC stalls, QP errors, server crashes) it puts
on the simulator calendar.

Every injected fault increments a local counter *and* (when the
simulator carries a :mod:`repro.obs` registry) a ``faults.*`` metrics
counter, so chaos runs are diagnosable from the standard metrics
export.  Recovery actions (QP re-arm, server restart) are counted too.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.faults.plan import (
    CORRUPT,
    DEGRADE,
    DELAY,
    DROP,
    DUPLICATE,
    REORDER,
    FaultPlan,
)
from repro.faults.rng import child_rng
from repro.hw.link import Fabric, LinkVerdict


class FaultInjector:
    """Runtime of one installed :class:`FaultPlan`."""

    def __init__(
        self,
        plan: FaultPlan,
        fabric: Fabric,
        devices: Optional[Dict[str, Any]] = None,
        servers: Optional[Sequence[Any]] = None,
    ) -> None:
        """Install ``plan`` onto ``fabric``.

        ``devices`` maps machine names to their
        :class:`~repro.verbs.RdmaDevice` (needed when the plan carries
        device-level rules) and ``servers`` lists the crashable server
        processes (needed for crash rules); a
        :class:`~repro.verbs.Testbed` passes its own registry of both
        from ``install_faults``.
        """
        self.plan = plan
        self.active = True
        self.counts: Dict[str, int] = {}
        self.fabric = fabric
        self.devices = devices if devices is not None else {}
        self.servers = servers
        self.sim = self.fabric.sim
        #: per-server (and per-QP) earliest allowed recovery time: when
        #: crash/error windows overlap, the union of the windows wins —
        #: the first window's recovery must not revive a target a later
        #: window still holds down
        self._down_until: Dict[Any, float] = {}
        self.metrics = getattr(self.sim, "metrics", None)
        self._link_rng = child_rng(plan.seed, "faults.link")
        self._rnr_rng = child_rng(plan.seed, "faults.rnr")
        # Control-kind-selective rules (heartbeat/grant loss) need to
        # peek at the HA control byte of SEND payloads; resolve the
        # decoder once, and only when a rule actually asks for it.
        self._ha_kind = None
        if any(rule.ctrl_kind is not None for rule in plan.link_rules):
            from repro.herd.wire import ha_kind

            self._ha_kind = ha_kind
        self._install()

    # -- bookkeeping -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n
        if self.metrics is not None:
            self.metrics.counter("faults." + name).inc(n)

    # -- installation ------------------------------------------------------

    def _install(self) -> None:
        if self.fabric.fault_hook is not None:
            raise RuntimeError("fabric already has a fault hook installed")
        if self.plan.link_rules:
            self.fabric.fault_hook = self._judge_link
        for rule in self.plan.rnr_rules:
            device = self._device(rule.machine)
            if device.rnr_hook is None:
                machine = rule.machine
                device.rnr_hook = lambda packet, _m=machine: self._judge_rnr(_m)
        for stall in self.plan.nic_stalls:
            self._schedule(stall.at_ns, lambda s=stall: self._fire_stall(s))
        for qpe in self.plan.qp_errors:
            self._schedule(qpe.at_ns, lambda q=qpe: self._fire_qp_error(q))
            if qpe.recover_after_ns is not None:
                self._schedule(
                    qpe.at_ns + qpe.recover_after_ns,
                    lambda q=qpe: self._fire_qp_recover(q),
                )
        if self.plan.crashes and self.servers is None:
            raise RuntimeError("crash rules require installing onto a cluster")
        for crash in self.plan.crashes:
            if not 0 <= crash.server_index < len(self.servers):
                raise ValueError(
                    "crash rule targets server %d; cluster has %d"
                    % (crash.server_index, len(self.servers))
                )
            self._schedule(crash.at_ns, lambda c=crash: self._fire_crash(c))
            self._schedule(
                crash.at_ns + crash.down_ns, lambda c=crash: self._fire_recover(c)
            )

    def _device(self, machine: str) -> Any:
        device = self.devices.get(machine)
        if device is None:
            raise ValueError(
                "plan names machine %r, not present in %s"
                % (machine, sorted(self.devices))
            )
        return device

    def _schedule(self, at_ns: float, fn) -> None:
        self.sim.call_in(max(0.0, at_ns - self.sim.now), fn)

    def deactivate(self) -> None:
        """Stop injecting (pending recoveries still run).

        The chaos harness calls this at the end of the fault horizon so
        the drain phase runs fault-free.
        """
        self.active = False

    # -- per-packet decisions ----------------------------------------------

    def _judge_link(self, src: str, dst: str, packet: Any, _wire_bytes: int):
        if not self.active:
            return None
        now = self.sim.now
        kind_name = getattr(getattr(packet, "kind", None), "value", "")
        ctrl_kind = None
        if self._ha_kind is not None:
            payload = getattr(packet, "payload", None)
            if payload:
                ctrl_kind = self._ha_kind(payload)
        drop_tag = None
        corrupt = False
        duplicate = 0
        dup_delay = 0.0
        extra_delay = 0.0
        tx_mult = 1.0
        for rule in self.plan.link_rules:
            if not rule.matches(src, dst, kind_name, now, ctrl_kind):
                continue
            if rule.rate < 1.0 and self._link_rng.random() >= rule.rate:
                continue
            if rule.kind == DROP:
                drop_tag = rule.tag or DROP
                break  # nothing downstream matters for a lost packet
            elif rule.kind == CORRUPT:
                corrupt = True
            elif rule.kind == DUPLICATE:
                duplicate += rule.copies
                dup_delay = max(dup_delay, rule.dup_delay_ns)
            elif rule.kind == DELAY:
                extra_delay += rule.extra_delay_ns
            elif rule.kind == REORDER:
                extra_delay += self._link_rng.random() * rule.jitter_ns
            elif rule.kind == DEGRADE:
                extra_delay += rule.extra_delay_ns
                tx_mult *= rule.tx_mult
        if drop_tag is not None:
            self.count("link.%s" % drop_tag)
            return LinkVerdict(drop=True)
        if not (corrupt or duplicate or extra_delay or tx_mult != 1.0):
            return None
        if corrupt:
            self.count("link.corrupt")
        if duplicate:
            self.count("link.duplicate", duplicate)
        if extra_delay:
            self.count("link.delayed")
        if tx_mult != 1.0:
            self.count("link.degraded")
        return LinkVerdict(
            corrupt=corrupt,
            duplicate=duplicate,
            extra_delay_ns=extra_delay,
            dup_delay_ns=dup_delay,
            tx_mult=tx_mult,
        )

    def _judge_rnr(self, machine: str) -> bool:
        if not self.active:
            return False
        now = self.sim.now
        for rule in self.plan.rnr_rules:
            if rule.machine != machine:
                continue
            if not rule.start_ns <= now < rule.end_ns:
                continue
            if self._rnr_rng.random() < rule.rate:
                self.count("rnr_drop")
                return True
        return False

    # -- timed faults ------------------------------------------------------

    def _fire_stall(self, stall) -> None:
        if not self.active:
            return
        machine = self._device(stall.machine).machine
        engine = machine.nic_ingress if stall.engine == "ingress" else machine.nic_egress
        # Occupy the engine for the stall duration: queued work waits
        # exactly as it would behind a wedged pipeline.
        engine.serve(stall.duration_ns)
        self.count("nic_stall")
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            tracer.mark(
                engine.name, "fault: engine stalled %.0f ns" % stall.duration_ns
            )

    def _hold_down(self, key: Any, until_ns: float) -> None:
        self._down_until[key] = max(self._down_until.get(key, 0.0), until_ns)

    def _may_recover(self, key: Any) -> bool:
        # tolerance for float scheduling noise: a recovery firing at its
        # own window's end must not be rejected by rounding
        return self.sim.now + 1e-6 >= self._down_until.get(key, 0.0)

    def _fire_qp_error(self, rule) -> None:
        if not self.active:
            return
        qp = self._device(rule.machine).qps.get(rule.qpn)
        if qp is None:
            raise ValueError("qp-error rule targets unknown QP %d" % rule.qpn)
        if rule.recover_after_ns is not None:
            self._hold_down(
                (rule.machine, rule.qpn), self.sim.now + rule.recover_after_ns
            )
        qp.transition_to_error()
        self.count("qp_error")

    def _fire_qp_recover(self, rule) -> None:
        if not self._may_recover((rule.machine, rule.qpn)):
            return  # a later overlapping error window still holds it
        qp = self._device(rule.machine).qps.get(rule.qpn)
        if qp is not None and qp.state.value == "ERROR":
            qp.recover()
            self.count("qp_recovery")

    def _fire_crash(self, rule) -> None:
        if not self.active:
            return
        # Extend the hold even when the server is already down: the
        # window union decides when recovery is legal, not whichever
        # window happened to fire first.
        self._hold_down(rule.server_index, self.sim.now + rule.down_ns)
        server = self.servers[rule.server_index]
        if server.crash():
            self.count("server_crash")

    def _fire_recover(self, rule) -> None:
        if not self._may_recover(rule.server_index):
            return  # a later overlapping crash window still holds it
        server = self.servers[rule.server_index]
        if server.recover():
            self.count("server_recovery")
