"""The ``FaultPlan`` DSL: a deterministic, seeded description of faults.

A plan is a declarative list of fault rules built with chained calls::

    plan = (
        FaultPlan(seed=7)
        .drop(dst="server", rate=0.02)
        .corrupt(rate=0.01)
        .duplicate(src="server", rate=0.005)
        .reorder(rate=0.01, jitter_ns=3_000)
        .nic_stall("server", engine="ingress", at_ns=50_000, duration_ns=5_000)
        .crash_server(0, at_ns=100_000, down_ns=60_000)
        .flap_link("cm1", at_ns=200_000, down_ns=10_000)
    )
    injector = cluster.install_faults(plan)

Nothing happens until a testbed's ``install_faults`` (or, on a bare
fabric, :meth:`FaultPlan.install`) hands the plan to a
:class:`~repro.faults.injector.FaultInjector`, which attaches hooks to
the fabric / devices / server processes and schedules the timed faults.
All randomness (which packet a ``rate`` rule hits) comes from named
child streams of the plan seed (:mod:`repro.faults.rng`), so a plan is
byte-for-byte reproducible and independent of workload RNGs.

Section 2.2.3 grounding: the paper's only loss source is bit errors
(``corrupt``/``drop``); everything else here models the hardware
failures ("occur rarely") that the paper's retry argument must also
survive — engine hiccups, QPs falling into the error state, RECV-ring
exhaustion, process crashes, and link flaps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Optional

from repro.faults.rng import child_rng

_INF = math.inf

#: link-rule kinds
DROP = "drop"
CORRUPT = "corrupt"
DUPLICATE = "duplicate"
DELAY = "delay"
REORDER = "reorder"
DEGRADE = "degrade"
LINK_KINDS = (DROP, CORRUPT, DUPLICATE, DELAY, REORDER, DEGRADE)


class _Rule:
    """Checks its fields on construction — by a builder, ``replace`` or
    :meth:`FaultPlan.from_dict` alike — NaN-safely.  An empty window
    (``end_ns <= start_ns``, as ``clamped`` makes) is legal: it never
    matches."""

    #: field -> the least value it accepts (``rate`` is within [0, 1])
    _LEAST: Dict[str, float] = {}

    def __post_init__(self) -> None:
        rate = getattr(self, "rate", 0.0)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1], got %r" % (rate,))
        for name, least in self._LEAST.items():
            value = getattr(self, name)
            if value is not None and not (value >= least):
                raise ValueError("%s must be >= %s, got %r" % (name, least, value))


@dataclass(frozen=True)
class LinkRule(_Rule):
    """One per-packet rule applied on the fabric's transmit path.

    ``src``/``dst`` name machines (``"*"`` matches any), making rules
    per-link-direction.  ``packet_kind`` optionally restricts the rule
    to one wire packet kind (``"WRITE"``, ``"SEND"``, ``"ACK"``, ...).
    The rule is active during ``[start_ns, end_ns)``.
    """

    kind: str
    src: str = "*"
    dst: str = "*"
    rate: float = 1.0
    start_ns: float = 0.0
    end_ns: float = _INF
    packet_kind: Optional[str] = None
    extra_delay_ns: float = 0.0   # DELAY/DEGRADE: deterministic added latency
    jitter_ns: float = 0.0        # REORDER: uniform added latency bound
    copies: int = 1               # DUPLICATE: extra deliveries
    dup_delay_ns: float = 0.0     # DUPLICATE: spacing of the copies
    tx_mult: float = 1.0          # DEGRADE: serialisation-time multiplier
    ctrl_kind: Optional[int] = None  # restrict to one HA control kind
    tag: str = ""                 # counter label; defaults to the kind

    _LEAST = dict(start_ns=0, end_ns=0, extra_delay_ns=0, jitter_ns=0, copies=1,
                  dup_delay_ns=0, tx_mult=1)

    def __post_init__(self) -> None:
        if self.kind not in LINK_KINDS:
            raise ValueError("unknown link-rule kind %r" % (self.kind,))
        super().__post_init__()

    def matches(
        self,
        src: str,
        dst: str,
        kind_name: str,
        now: float,
        ctrl_kind: Optional[int] = None,
    ) -> bool:
        if not self.start_ns <= now < self.end_ns:
            return False
        if self.src != "*" and self.src != src:
            return False
        if self.dst != "*" and self.dst != dst:
            return False
        if self.packet_kind is not None and self.packet_kind != kind_name:
            return False
        if self.ctrl_kind is not None and self.ctrl_kind != ctrl_kind:
            return False
        return True


@dataclass(frozen=True)
class NicStallRule(_Rule):
    """The named machine's NIC engine freezes for a while at ``at_ns``."""

    machine: str
    engine: str  # "ingress" | "egress"
    at_ns: float
    duration_ns: float

    _LEAST = dict(at_ns=0, duration_ns=0)

    def __post_init__(self) -> None:
        if self.engine not in ("ingress", "egress"):
            raise ValueError("engine must be 'ingress' or 'egress'")
        super().__post_init__()


@dataclass(frozen=True)
class QpErrorRule(_Rule):
    """A QP transitions to the error state (optionally recovering)."""

    machine: str
    qpn: int
    at_ns: float
    recover_after_ns: Optional[float] = None

    _LEAST = dict(at_ns=0, recover_after_ns=0)


@dataclass(frozen=True)
class RnrRule(_Rule):
    """RECV-queue exhaustion at a machine: inbound SENDs are dropped
    with probability ``rate`` during the window (receiver-not-ready)."""

    machine: str
    rate: float
    start_ns: float = 0.0
    end_ns: float = _INF

    _LEAST = dict(start_ns=0, end_ns=0)


@dataclass(frozen=True)
class CrashRule(_Rule):
    """A HERD server process crashes at ``at_ns`` and restarts after
    ``down_ns`` (recovery re-scans its request-region partition)."""

    server_index: int
    at_ns: float
    down_ns: float

    _LEAST = dict(server_index=0, at_ns=0, down_ns=0)


@dataclass(frozen=True)
class FlapRule(_Rule):
    """The machine's link goes down for ``down_ns``: everything sent to
    or from it in the window is lost."""

    machine: str
    at_ns: float
    down_ns: float

    _LEAST = dict(at_ns=0, down_ns=0)


@dataclass
class FaultPlan:
    """A seeded, declarative set of faults to inject into one run."""

    seed: int = 0
    link_rules: List[LinkRule] = field(default_factory=list)
    nic_stalls: List[NicStallRule] = field(default_factory=list)
    qp_errors: List[QpErrorRule] = field(default_factory=list)
    rnr_rules: List[RnrRule] = field(default_factory=list)
    crashes: List[CrashRule] = field(default_factory=list)
    flaps: List[FlapRule] = field(default_factory=list)

    # -- link-level faults -------------------------------------------------

    def drop(
        self,
        src: str = "*",
        dst: str = "*",
        rate: float = 1.0,
        start_ns: float = 0.0,
        end_ns: float = _INF,
        packet_kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Lose matching packets before they reach the wire."""
        self.link_rules.append(
            LinkRule(DROP, src, dst, rate, start_ns, end_ns, packet_kind)
        )
        return self

    def uniform_loss(self, rate: float) -> "FaultPlan":
        """Every packet, any direction: the paper's one loss source, a
        flat bit-error rate (Section 2.2.3)."""
        return self.drop(rate=rate)

    def corrupt(
        self,
        src: str = "*",
        dst: str = "*",
        rate: float = 1.0,
        start_ns: float = 0.0,
        end_ns: float = _INF,
        packet_kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Damage matching packets on the wire.

        Unlike :meth:`drop`, a corrupted packet still consumes wire and
        ingress-engine capacity before the receiving NIC's ICRC check
        discards it — the distinction the paper's bit-error loss model
        glosses over.
        """
        self.link_rules.append(
            LinkRule(CORRUPT, src, dst, rate, start_ns, end_ns, packet_kind)
        )
        return self

    def duplicate(
        self,
        src: str = "*",
        dst: str = "*",
        rate: float = 1.0,
        copies: int = 1,
        dup_delay_ns: float = 1_000.0,
        start_ns: float = 0.0,
        end_ns: float = _INF,
        packet_kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Deliver matching packets ``copies`` extra times."""
        self.link_rules.append(
            LinkRule(
                DUPLICATE, src, dst, rate, start_ns, end_ns, packet_kind,
                copies=copies, dup_delay_ns=dup_delay_ns,
            )
        )
        return self

    def delay(
        self,
        extra_ns: float,
        src: str = "*",
        dst: str = "*",
        rate: float = 1.0,
        start_ns: float = 0.0,
        end_ns: float = _INF,
        packet_kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Add a fixed extra propagation delay to matching packets."""
        self.link_rules.append(
            LinkRule(
                DELAY, src, dst, rate, start_ns, end_ns, packet_kind,
                extra_delay_ns=extra_ns,
            )
        )
        return self

    def reorder(
        self,
        jitter_ns: float,
        src: str = "*",
        dst: str = "*",
        rate: float = 1.0,
        start_ns: float = 0.0,
        end_ns: float = _INF,
        packet_kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Add a uniform random delay in ``[0, jitter_ns)`` to matching
        packets, reordering them against later traffic."""
        self.link_rules.append(
            LinkRule(
                REORDER, src, dst, rate, start_ns, end_ns, packet_kind,
                jitter_ns=jitter_ns,
            )
        )
        return self

    # -- gray failures ----------------------------------------------------

    def degrade(
        self,
        src: str = "*",
        dst: str = "*",
        latency_add_ns: float = 0.0,
        rate_mult: float = 1.0,
        start_ns: float = 0.0,
        end_ns: float = _INF,
        packet_kind: Optional[str] = None,
    ) -> "FaultPlan":
        """A slow-but-alive link: gray failure, not death.

        Matching packets still arrive, but each one serialises
        ``1 / rate_mult`` times slower (a negotiated-down or
        congested link) and carries ``latency_add_ns`` extra
        propagation delay.  Nothing is lost, so retry machinery never
        fires — exactly the failure mode timeout-based detectors are
        worst at.
        """
        if not 0.0 < rate_mult <= 1.0:
            raise ValueError("rate_mult must be in (0, 1], got %r" % (rate_mult,))
        if latency_add_ns == 0.0 and rate_mult == 1.0:
            raise ValueError("degrade must slow something down")
        self.link_rules.append(
            LinkRule(
                DEGRADE, src, dst, 1.0, start_ns, end_ns, packet_kind,
                extra_delay_ns=latency_add_ns, tx_mult=1.0 / rate_mult,
            )
        )
        return self

    def partition_oneway(
        self,
        src: str,
        dst: str,
        start_ns: float = 0.0,
        end_ns: float = _INF,
    ) -> "FaultPlan":
        """An asymmetric partition: ``src -> dst`` traffic vanishes
        while the reverse direction keeps flowing.

        The classic gray failure for lease protocols — one side
        believes the link is healthy while the other's messages never
        arrive.  Sugar for a total-loss one-direction drop rule.
        """
        if src == "*" and dst == "*":
            raise ValueError("a one-way partition needs a src or dst machine")
        if src == dst:
            raise ValueError("src and dst must differ")
        self.link_rules.append(
            LinkRule(DROP, src, dst, 1.0, start_ns, end_ns, tag="partition1w")
        )
        return self

    def lose_heartbeats(
        self,
        machine: str,
        rate: float = 1.0,
        start_ns: float = 0.0,
        end_ns: float = _INF,
        direction: str = "to_monitor",
        monitor: str = "monitor",
    ) -> "FaultPlan":
        """Heartbeat-selective loss on one replica machine's control
        traffic, leaving the data path untouched.

        ``direction="to_monitor"`` drops the machine's heartbeats
        before they reach the lease monitor (the monitor declares it
        dead while it keeps serving until its lease lapses);
        ``direction="from_monitor"`` drops the monitor's GRANTs back
        (the primary self-demotes while the monitor still believes it
        alive).  Either makes :class:`repro.ha.detector.LeaseMonitor`
        flap without a single data packet being lost.
        """
        from repro.herd import wire  # deferred: avoids an import cycle

        if direction == "to_monitor":
            self.link_rules.append(
                LinkRule(
                    DROP, machine, monitor, rate, start_ns, end_ns, "SEND",
                    ctrl_kind=wire.CTRL_HEARTBEAT, tag="hb_loss",
                )
            )
        elif direction == "from_monitor":
            self.link_rules.append(
                LinkRule(
                    DROP, monitor, machine, rate, start_ns, end_ns, "SEND",
                    ctrl_kind=wire.CTRL_GRANT, tag="grant_loss",
                )
            )
        else:
            raise ValueError(
                "direction must be 'to_monitor' or 'from_monitor', got %r"
                % (direction,)
            )
        return self

    # -- device / process faults ------------------------------------------

    def nic_stall(
        self, machine: str, engine: str, at_ns: float, duration_ns: float
    ) -> "FaultPlan":
        """Freeze one NIC engine (``"ingress"``/``"egress"``)."""
        self.nic_stalls.append(NicStallRule(machine, engine, at_ns, duration_ns))
        return self

    def qp_error(
        self,
        machine: str,
        qpn: int,
        at_ns: float,
        recover_after_ns: Optional[float] = None,
    ) -> "FaultPlan":
        """Transition one QP to the error state (optionally re-arm)."""
        self.qp_errors.append(QpErrorRule(machine, qpn, at_ns, recover_after_ns))
        return self

    def rnr(
        self,
        machine: str,
        rate: float,
        start_ns: float = 0.0,
        end_ns: float = _INF,
    ) -> "FaultPlan":
        """RECV-queue exhaustion at ``machine`` during the window."""
        self.rnr_rules.append(RnrRule(machine, rate, start_ns, end_ns))
        return self

    def crash_server(
        self, server_index: int, at_ns: float, down_ns: float
    ) -> "FaultPlan":
        """Crash HERD server process ``server_index``; restart later."""
        self.crashes.append(CrashRule(server_index, at_ns, down_ns))
        return self

    def flap_link(self, machine: str, at_ns: float, down_ns: float) -> "FaultPlan":
        """Take the machine's port down for ``down_ns``."""
        self.flaps.append(FlapRule(machine, at_ns, down_ns))
        # A flap is sugar for two total-loss drop rules in the window.
        end = at_ns + down_ns
        self.link_rules.append(
            LinkRule(DROP, src=machine, start_ns=at_ns, end_ns=end, tag="flap")
        )
        self.link_rules.append(
            LinkRule(DROP, dst=machine, start_ns=at_ns, end_ns=end, tag="flap")
        )
        return self

    # -- composition / installation ---------------------------------------

    @property
    def empty(self) -> bool:
        # ``flaps`` is normally redundant (flap_link adds sugar link
        # rules too), but a plan rebuilt from a serialized dict — or
        # constructed field-by-field — may carry flap records alone;
        # it must not read as empty.
        return not (
            self.link_rules
            or self.nic_stalls
            or self.qp_errors
            or self.rnr_rules
            or self.crashes
            or self.flaps
        )

    def install(self, fabric):
        """Attach this plan to a bare ``Fabric`` (verbs-level
        experiments; a cluster takes it through ``install_faults``,
        which also resolves device and crash rules).

        Returns the :class:`~repro.faults.injector.FaultInjector` doing
        the work.
        """
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, fabric)

    def describe(self) -> str:
        """A human-readable one-line-per-rule summary.

        Every rule type renders exactly once: flap sugar drops are
        folded into one ``flap`` line (they used to double-render as
        two anonymous drops while the flap itself was silently
        dropped), and per-kind parameters (delay, jitter, copies,
        degradation multipliers) appear instead of vanishing.
        """
        lines = ["FaultPlan(seed=%d)" % self.seed]
        for rule in self.link_rules:
            if rule.tag == "flap":
                continue  # rendered from self.flaps below, once
            window = (
                ""
                if rule.end_ns == _INF and rule.start_ns == 0.0
                else " during [%.0f, %.0f) ns" % (rule.start_ns, rule.end_ns)
            )
            if rule.kind == DELAY:
                detail = " +%.0f ns" % rule.extra_delay_ns
            elif rule.kind == REORDER:
                detail = " jitter<%.0f ns" % rule.jitter_ns
            elif rule.kind == DUPLICATE:
                detail = " x%d every %.0f ns" % (rule.copies, rule.dup_delay_ns)
            elif rule.kind == DEGRADE:
                detail = " tx x%.3g +%.0f ns" % (rule.tx_mult, rule.extra_delay_ns)
            else:
                detail = ""
            lines.append(
                "  %-11s %s->%s rate=%g%s%s%s%s"
                % (
                    rule.tag or rule.kind,
                    rule.src,
                    rule.dst,
                    rule.rate,
                    " kind=%s" % rule.packet_kind if rule.packet_kind else "",
                    " ctrl=%d" % rule.ctrl_kind if rule.ctrl_kind is not None else "",
                    detail,
                    window,
                )
            )
        for stall in self.nic_stalls:
            lines.append(
                "  nic-stall   %s.%s at %.0f ns for %.0f ns"
                % (stall.machine, stall.engine, stall.at_ns, stall.duration_ns)
            )
        for qpe in self.qp_errors:
            lines.append(
                "  qp-error    %s qp%d at %.0f ns%s"
                % (
                    qpe.machine,
                    qpe.qpn,
                    qpe.at_ns,
                    ""
                    if qpe.recover_after_ns is None
                    else " recover +%.0f ns" % qpe.recover_after_ns,
                )
            )
        for rnr in self.rnr_rules:
            lines.append(
                "  rnr         %s rate=%g during [%.0f, %.0f) ns"
                % (rnr.machine, rnr.rate, rnr.start_ns, rnr.end_ns)
            )
        for crash in self.crashes:
            lines.append(
                "  crash       server %d at %.0f ns, down %.0f ns"
                % (crash.server_index, crash.at_ns, crash.down_ns)
            )
        for flap in self.flaps:
            lines.append(
                "  flap        %s at %.0f ns, down %.0f ns"
                % (flap.machine, flap.at_ns, flap.down_ns)
            )
        return "\n".join(lines)

    # -- randomized plans (chaos) -----------------------------------------

    @classmethod
    def randomized(
        cls,
        seed: int,
        horizon_ns: float,
        n_server_processes: int = 1,
        intensity: float = 1.0,
        crash: bool = True,
        rnr_machine: Optional[str] = None,
    ) -> "FaultPlan":
        """A seeded random chaos mix, all faults within ``horizon_ns``.

        Always includes loss + corruption + duplication toward and from
        the server; with ``crash=True`` (and at least two server
        processes so siblings can absorb load) also one server-process
        crash that recovers well before the horizon.  ``rnr_machine``
        names a machine whose RECV ring intermittently runs dry — in
        HERD that must be a *client* machine (responses are the only
        SENDs on the wire; requests are WRITEs and need no RECV).
        Drops aimed at one packet kind are the nemesis's move
        (:mod:`repro.nemesis.schedule`).
        """
        if horizon_ns <= 0:
            raise ValueError("horizon_ns must be > 0")
        if intensity <= 0:
            raise ValueError("intensity must be > 0")
        rng = child_rng(seed, "faults.randomized")
        scale = min(intensity, 10.0)
        plan = cls(seed=seed)
        u = rng.uniform
        plan.drop(dst="server", rate=u(0.01, 0.04) * scale, end_ns=horizon_ns)
        plan.drop(src="server", rate=u(0.005, 0.03) * scale, end_ns=horizon_ns)
        plan.corrupt(rate=u(0.002, 0.01) * scale, end_ns=horizon_ns)
        plan.duplicate(
            rate=u(0.002, 0.01) * scale,
            dup_delay_ns=u(500.0, 3_000.0),
            end_ns=horizon_ns,
        )
        plan.reorder(jitter_ns=u(500.0, 4_000.0), rate=u(0.01, 0.05), end_ns=horizon_ns)
        plan.nic_stall(
            "server",
            engine="ingress" if rng.random() < 0.5 else "egress",
            at_ns=u(0.1, 0.8) * horizon_ns,
            duration_ns=u(0.005, 0.02) * horizon_ns,
        )
        if rnr_machine is not None:
            plan.rnr(
                rnr_machine,
                rate=u(0.05, 0.2),
                start_ns=u(0.1, 0.5) * horizon_ns,
                end_ns=u(0.6, 0.9) * horizon_ns,
            )
        if crash and n_server_processes > 1:
            at = u(0.2, 0.45) * horizon_ns
            plan.crash_server(
                rng.randrange(n_server_processes),
                at_ns=at,
                down_ns=u(0.1, 0.25) * horizon_ns,
            )
        return plan

    def clamped(self, end_ns: float) -> "FaultPlan":
        """A copy whose open-ended link/rnr windows close at ``end_ns``
        (used by the chaos harness so the drain phase is fault-free).

        Flap records are clamped alongside their sugar drop rules, so a
        clamped plan's ``describe()`` and serialized form agree with
        the rules that actually fire.
        """
        plan = FaultPlan(seed=self.seed)
        plan.link_rules = [
            replace(rule, end_ns=min(rule.end_ns, end_ns)) for rule in self.link_rules
        ]
        plan.nic_stalls = list(self.nic_stalls)
        plan.qp_errors = list(self.qp_errors)
        plan.rnr_rules = [
            replace(rule, end_ns=min(rule.end_ns, end_ns)) for rule in self.rnr_rules
        ]
        plan.crashes = list(self.crashes)
        plan.flaps = [
            replace(
                flap,
                down_ns=max(0.0, min(flap.down_ns, end_ns - flap.at_ns)),
            )
            for flap in self.flaps
        ]
        return plan

    # -- serialization (nemesis repro artifacts) ---------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict capturing every rule byte-for-byte.

        Open-ended windows (``inf``) encode as the string ``"inf"`` so
        artifacts stay strict JSON.
        """

        def enc(rule) -> Dict[str, Any]:
            out = {}
            for key, value in asdict(rule).items():
                if isinstance(value, float) and math.isinf(value):
                    value = "inf"
                out[key] = value
            return out

        return {
            "seed": self.seed,
            "link_rules": [enc(r) for r in self.link_rules],
            "nic_stalls": [enc(r) for r in self.nic_stalls],
            "qp_errors": [enc(r) for r in self.qp_errors],
            "rnr_rules": [enc(r) for r in self.rnr_rules],
            "crashes": [enc(r) for r in self.crashes],
            "flaps": [enc(r) for r in self.flaps],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict` exactly."""

        def dec(cls_, raw: Dict[str, Any]):
            known = {f.name for f in fields(cls_)}
            kwargs = {}
            for key, value in raw.items():
                if key not in known:
                    raise ValueError(
                        "unknown %s field %r in plan dict" % (cls_.__name__, key)
                    )
                kwargs[key] = _INF if value == "inf" else value
            return cls_(**kwargs)

        plan = cls(seed=int(data.get("seed", 0)))
        plan.link_rules = [dec(LinkRule, r) for r in data.get("link_rules", ())]
        plan.nic_stalls = [dec(NicStallRule, r) for r in data.get("nic_stalls", ())]
        plan.qp_errors = [dec(QpErrorRule, r) for r in data.get("qp_errors", ())]
        plan.rnr_rules = [dec(RnrRule, r) for r in data.get("rnr_rules", ())]
        plan.crashes = [dec(CrashRule, r) for r in data.get("crashes", ())]
        plan.flaps = [dec(FlapRule, r) for r in data.get("flaps", ())]
        return plan
