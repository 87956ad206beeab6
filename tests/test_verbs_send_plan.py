"""Send plans: built once per message shape, sound, and never a bypass.

``RdmaDevice`` derives what a work request costs from its *shape* —
(transport, opcode, inline, length) — on the first post of that shape
and reads the plan on every later one.  Three things must hold:

(i)   the device caches, field for field, what ``plan_for`` — the one
      cost definition, which ``BottleneckModel`` reads too — returns;
      that plan meets this file's own expectations on both hardware
      profiles; and one shape has one plan object;
(ii)  what depends on the WR or the QP rather than the shape is still
      checked on a post that *hits* the plan table;
(iii) a shape the hardware rejects is rejected every time, with
      ``plan_for``'s error, and leaves no plan behind.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import APT, SUSITNA, Fabric, Machine
from repro.sim import Simulator
from repro.verbs import (
    CqeStatus,
    Opcode,
    RdmaDevice,
    RecvRequest,
    SendPlan,
    Transport,
    VerbError,
    WorkRequest,
    connect_pair,
    plan_for,
)
from repro.verbs.packets import PacketKind

MTU = APT.mtu
REGION = 4 * MTU


class World:
    """Two devices, one QP of ``transport`` from requester to responder."""

    def __init__(self, transport, profile=APT):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, profile)
        self.responder = RdmaDevice(Machine(self.sim, self.fabric, "responder"))
        self.requester = RdmaDevice(Machine(self.sim, self.fabric, "requester"))
        self.remote = self.responder.register_memory(REGION)
        self.src = self.requester.register_memory(REGION)
        self.sink = self.requester.register_memory(REGION)
        if transport.connected:
            self.rqp, self.qp = connect_pair(self.responder, self.requester, transport)
            self.ah = None
        else:
            self.rqp = self.responder.create_qp(transport)
            self.qp = self.requester.create_qp(transport)
            self.ah = ("responder", self.rqp.qpn)
        inbox = self.responder.register_memory(2 * REGION)
        for i in range(4):
            self.responder.post_recv(self.rqp, RecvRequest(i, (inbox, 0, 2 * REGION)))

    def wr(self, opcode, inline, length, **overrides):
        """A hand-built WR of exactly this shape, valid in every other respect."""
        fields = dict(raddr=self.remote.addr, rkey=self.remote.rkey, ah=self.ah)
        if opcode.fetchless:
            fields["local"] = (self.sink, 0, length)
        elif inline:
            fields["payload"] = b"p" * length
        else:
            fields["local"] = (self.src, 0, length)
        fields.update(overrides)
        return WorkRequest(opcode, inline=inline, **fields)

    def plan_key(self, wr):
        return (self.qp.transport.index, wr.opcode.index, wr.inline, wr.length)

    def post(self, wr):
        return self.requester.post_send(self.qp, wr)


# ---------------------------------------------------------------------------
# (i) a cached plan equals plan_for's and the expectations here
# ---------------------------------------------------------------------------

SEND_OPCODES = [op for op in Opcode if op is not Opcode.RECV]


def _wire_payload(kind, length):
    """Bytes a request carries after its headers: operands or the payload."""
    return {PacketKind.READ_REQ: 16, PacketKind.ATOMIC_REQ: 28}.get(kind, length)


@settings(max_examples=300, deadline=None)
@given(
    profile=st.sampled_from([APT, SUSITNA]),
    transport=st.sampled_from(list(Transport)),
    opcode=st.sampled_from(SEND_OPCODES),
    inline=st.booleans(),
    length=st.one_of(
        st.integers(0, 4 * MTU),
        # the edges the verdicts turn on
        st.sampled_from([0, 1, 63, 64, 255, 256, 257, MTU - 1, MTU, MTU + 1, 4 * MTU]),
    ),
)
def test_plan_matches_the_helpers_it_was_built_from(
    profile, transport, opcode, inline, length
):
    if opcode.atomic:
        length = 8  # any other sink size is a WR error, checked in (ii)
    world = World(transport, profile)
    device = world.requester
    first, second = (world.wr(opcode, inline, length) for _ in range(2))
    try:
        expected = plan_for(profile, transport, opcode, inline, length)
    except VerbError as rejected:
        for wr in (first, second):
            with pytest.raises(VerbError, match="^%s$" % re.escape(str(rejected))):
                world.post(wr)
        assert device._plans == {}
        return

    plans = [world.post(wr).value[2] for wr in (first, second)]
    assert plans[0] is plans[1] is device._plans[world.plan_key(first)]
    assert len(device._plans) == 1
    plan = plans[0]
    for field in SendPlan.__slots__:
        assert getattr(plan, field) == getattr(expected, field), field

    fetched = not (inline or opcode.fetchless)
    kind = {
        Opcode.WRITE: PacketKind.WRITE,
        Opcode.SEND: PacketKind.SEND,
        Opcode.READ: PacketKind.READ_REQ,
        Opcode.ATOMIC_CS: PacketKind.ATOMIC_REQ,
        Opcode.ATOMIC_FA: PacketKind.ATOMIC_REQ,
    }[opcode]
    ud = transport is Transport.UD
    assert plan.egress_ns == (
        profile.nic_egress_read_ns if opcode.fetchless else profile.nic_egress_ns
    )
    assert plan.fetch_transactions == (
        profile.non_inline_fetch_transactions + (transport is Transport.RC)
        if fetched
        else None
    )
    assert plan.kind is kind
    assert plan.length == length == first.length
    on_wire = _wire_payload(kind, length)
    segments = max(1, -(-on_wire // profile.mtu))
    assert plan.wire_bytes == on_wire + segments * profile.wire_bytes(0, ud=ud)
    assert plan.acked == (transport.reliable and opcode in (Opcode.WRITE, Opcode.SEND))
    assert plan.local_completion == (not transport.reliable)

    # and the planned path carries both WRs to completion
    world.sim.run_until_idle()
    assert world.requester.machine.port.tx_packets == 2


def test_roce_grh_is_in_the_plan():
    apt, susitna = (World(Transport.UD, profile) for profile in (APT, SUSITNA))
    plans = [
        world.post(world.wr(Opcode.SEND, True, 32)).value[2] for world in (apt, susitna)
    ]
    assert plans[1].wire_bytes - plans[0].wire_bytes == SUSITNA.grh_bytes


def test_plans_are_per_shape_never_per_wr():
    world = World(Transport.UC)
    for i in range(50):
        world.post(world.wr(Opcode.WRITE, True, 16 + 16 * (i % 3)))
    assert len(world.requester._plans) == 3


# ---------------------------------------------------------------------------
# (ii) WR- and QP-dependent checks still run when the shape hits the table
# ---------------------------------------------------------------------------


def _warmed(transport, opcode, inline, length):
    """A world whose plan table already holds this shape."""
    world = World(transport)
    world.post(world.wr(opcode, inline, length))
    world.sim.run_until_idle()
    return world


def _sent(world):
    return world.requester.machine.port.tx_packets


def test_read_without_a_sink_is_rejected_on_a_cache_hit():
    world = _warmed(Transport.RC, Opcode.READ, False, 0)
    sent = _sent(world)
    with pytest.raises(VerbError, match="local sink"):
        world.post(world.wr(Opcode.READ, False, 0, local=None))
    world.sim.run_until_idle()
    assert _sent(world) == sent


@pytest.mark.parametrize("opcode", (Opcode.ATOMIC_CS, Opcode.ATOMIC_FA))
def test_bad_atomic_operands_are_rejected_on_a_cache_hit(opcode):
    world = _warmed(Transport.RC, opcode, False, 8)
    sent = _sent(world)
    with pytest.raises(VerbError, match="aligned"):
        world.post(world.wr(opcode, False, 8, raddr=world.remote.addr + 4))
    with pytest.raises(VerbError, match="local sink"):
        world.post(world.wr(opcode, False, 8, local=None))
    # a wrong-sized sink is a different shape: rejected on its first
    # post and again once that shape has a plan
    for _ in range(2):
        with pytest.raises(VerbError, match="exactly 8 bytes"):
            world.post(world.wr(opcode, False, 4))
    world.sim.run_until_idle()
    assert _sent(world) == sent


def test_address_handle_on_a_connected_qp_is_rejected_on_a_cache_hit():
    world = _warmed(Transport.UC, Opcode.WRITE, True, 32)
    sent = _sent(world)
    with pytest.raises(VerbError, match="only for unconnected"):
        world.post(world.wr(Opcode.WRITE, True, 32, ah=("responder", 1)))
        world.sim.run_until_idle()
    assert _sent(world) == sent


@pytest.mark.parametrize("transport", (Transport.UD, Transport.DC))
def test_missing_address_handle_is_rejected_on_a_cache_hit(transport):
    world = _warmed(transport, Opcode.SEND, True, 32)
    sent = _sent(world)
    with pytest.raises(VerbError, match="require an address handle"):
        world.post(world.wr(Opcode.SEND, True, 32, ah=None))
        world.sim.run_until_idle()
    assert _sent(world) == sent


def test_unconnected_qp_is_rejected_on_a_cache_hit():
    world = _warmed(Transport.UC, Opcode.WRITE, True, 32)
    loose = world.requester.create_qp(Transport.UC)
    with pytest.raises(VerbError, match="not connected"):
        world.requester.post_send(loose, world.wr(Opcode.WRITE, True, 32))


@pytest.mark.parametrize("signaled", (True, False))
def test_error_state_qp_flushes_on_a_cache_hit(signaled):
    world = _warmed(Transport.RC, Opcode.WRITE, False, 64)
    world.qp.send_cq.poll()
    sent = _sent(world)
    world.qp.transition_to_error()
    world.post(world.wr(Opcode.WRITE, False, 64, wr_id=7, signaled=signaled))
    world.sim.run_until_idle()
    assert _sent(world) == sent  # flushed, never on the wire
    assert world.qp.flushed_wrs == 1
    cqes = world.qp.send_cq.poll()
    if signaled:
        assert [(c.wr_id, c.status) for c in cqes] == [(7, CqeStatus.FLUSH_ERROR)]
    else:
        assert cqes == []


def test_read_credits_still_gate_planned_reads():
    world = _warmed(Transport.RC, Opcode.READ, False, 32)
    limit = APT.max_outstanding_reads
    for _ in range(limit + 3):
        world.post(world.wr(Opcode.READ, False, 32))
    assert len(world.qp.pending_reads) == 3
    world.sim.run_until_idle()
    assert not world.qp.pending_reads and world.qp.read_credits == limit
    assert world.responder.reads_served == limit + 4


# ---------------------------------------------------------------------------
# (iii) a rejected shape is rejected every time and plans nothing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "transport, opcode, inline, length, message",
    [
        (Transport.UC, Opcode.WRITE, True, APT.max_inline + 1, "max_inline"),
        (Transport.UD, Opcode.SEND, False, MTU + 1, "one MTU"),
        (Transport.UC, Opcode.READ, False, 32, "Table 1"),
        (Transport.UD, Opcode.WRITE, True, 32, "Table 1"),
        (Transport.RC, Opcode.ATOMIC_FA, True, 8, "inlined"),
        (Transport.RC, Opcode.RECV, False, 32, "post_recv"),
    ],
)
def test_rejected_shape_raises_on_every_post_and_leaves_no_plan(
    transport, opcode, inline, length, message
):
    world = World(transport)
    with pytest.raises(VerbError, match=message) as rejected:
        plan_for(APT, transport, opcode, inline, length)
    for _ in range(3):
        with pytest.raises(VerbError, match=message) as posted:
            world.post(world.wr(opcode, inline, length))
        assert str(posted.value) == str(rejected.value)
    assert world.requester._plans == {}
    world.sim.run_until_idle()
    assert _sent(world) == 0
    # the device is none the worse: a legal shape still goes through
    legal = Opcode.SEND if transport is Transport.UD else Opcode.WRITE
    world.post(world.wr(legal, True, 32))
    world.sim.run_until_idle()
    assert _sent(world) == 1
