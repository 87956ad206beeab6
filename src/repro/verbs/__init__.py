"""RDMA verbs over the simulated fabric.

This package implements the userspace verbs interface the paper builds
on (Section 2.2): queue pairs over RC/UC/UD transports, READ / WRITE /
SEND / RECV work requests, completion queues with selective signaling,
payload inlining, and registered memory regions holding real bytes.
What one work-request shape costs is :func:`plan_for`'s alone.

The *protocol* lives here; the *time* comes from :mod:`repro.hw` — each
step of the datapath (PIO of the WQE, engine processing, DMA, wire)
occupies the corresponding hardware server.

Typical use::

    sim = Simulator()
    fabric = Fabric(sim, APT)
    server = RdmaDevice(Machine(sim, fabric, "server"))
    client = RdmaDevice(Machine(sim, fabric, "client"))

    mr = server.register_memory(4096)
    sqp, cqp = connect_pair(server, client, Transport.UC)

    wr = WorkRequest.write(raddr=mr.addr, rkey=mr.rkey,
                           payload=b"hello", inline=True, signaled=False)
    client.post_send(cqp, wr)
"""

from repro.verbs.cq import CompletionQueue
from repro.verbs.device import RdmaDevice, connect_pair
from repro.verbs.mr import MemoryRegion
from repro.verbs.plan import SendPlan, plan_for
from repro.verbs.qp import QueuePair
from repro.verbs.staging import StagingRing
from repro.verbs.testbed import Testbed
from repro.verbs.types import (
    Cqe,
    CqeStatus,
    Opcode,
    QpState,
    RecvRequest,
    Transport,
    VerbError,
    WorkRequest,
    transport_supports,
)

__all__ = [
    "CompletionQueue",
    "Cqe",
    "CqeStatus",
    "MemoryRegion",
    "Opcode",
    "QpState",
    "QueuePair",
    "RdmaDevice",
    "RecvRequest",
    "SendPlan",
    "StagingRing",
    "Testbed",
    "Transport",
    "VerbError",
    "WorkRequest",
    "connect_pair",
    "plan_for",
    "transport_supports",
]
