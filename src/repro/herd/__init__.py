"""HERD: the paper's key-value cache (Section 4).

The design in one paragraph: clients WRITE their GET/PUT requests over
UC into a per-client slot of the server's *request region*; server
processes poll their slots, execute the operation against a MICA-style
cache partition (masking DRAM latency with a prefetch pipeline), and
respond with a SEND over UD — one network round trip per operation,
using only the verbs that scale.  ``HerdConfig(request_transport="UD")``
is Section 5.5's SEND/SEND design on the same server and client: each
request is a SEND over UD into the server process's RECV ring.

Entry point: :class:`HerdCluster` builds the whole system (server
machine, request region, NS server processes, NC client processes on
a set of client machines) on a simulated fabric and runs a workload::

    cluster = HerdCluster(HerdConfig(n_server_processes=6), APT)
    cluster.add_clients(51, Workload(get_fraction=0.95, value_size=32))
    result = cluster.run(warmup_ns=50_000, measure_ns=200_000)
    print(result.mops, result.latency["mean_us"])
"""

from repro.herd.client import HerdClientProcess
from repro.herd.cluster import HerdCluster, RunResult
from repro.herd.config import HerdConfig, partition_of
from repro.herd.region import RequestRegion
from repro.herd.server import HerdServerProcess
from repro.herd.wire import (
    GET_MARKER,
    decode_request,
    decode_response,
    encode_get,
    encode_put,
    encode_response,
)

__all__ = [
    "GET_MARKER",
    "HerdClientProcess",
    "HerdCluster",
    "HerdConfig",
    "HerdServerProcess",
    "RequestRegion",
    "RunResult",
    "decode_request",
    "decode_response",
    "encode_get",
    "encode_put",
    "encode_response",
    "partition_of",
]
