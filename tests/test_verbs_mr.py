"""Tests for memory regions and the registration table."""

import os
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kv.mica import CircularLog
from repro.verbs.mr import MemoryRegion, MrAccessError, MrTable, PAGE


def test_register_assigns_nonzero_page_aligned_addresses():
    table = MrTable()
    a = table.register(100)
    b = table.register(100)
    assert a.addr != 0
    assert a.addr % PAGE == 0
    assert b.addr % PAGE == 0
    assert b.addr >= a.addr + PAGE  # non-overlapping


def test_register_rejects_empty():
    with pytest.raises(ValueError):
        MrTable().register(0)


def test_local_write_read_roundtrip():
    mr = MrTable().register(64)
    mr.write(10, b"hello")
    assert mr.read(10, 5) == b"hello"
    assert mr.read(0, 10) == b"\x00" * 10


def test_write_out_of_bounds():
    mr = MrTable().register(16)
    with pytest.raises(MrAccessError):
        mr.write(12, b"toolong")
    with pytest.raises(MrAccessError):
        mr.write(-1, b"x")


def test_read_out_of_bounds():
    mr = MrTable().register(16)
    with pytest.raises(MrAccessError):
        mr.read(8, 9)
    with pytest.raises(MrAccessError):
        mr.read(0, -1)


def test_offset_of_translates_addresses():
    table = MrTable()
    mr = table.register(128)
    assert mr.offset_of(mr.addr) == 0
    assert mr.offset_of(mr.addr + 127) == 127
    with pytest.raises(MrAccessError):
        mr.offset_of(mr.addr + 128)
    with pytest.raises(MrAccessError):
        mr.offset_of(mr.addr - 1)


def test_resolve_checks_rkey_and_bounds():
    table = MrTable()
    mr = table.register(128)
    assert table.resolve(mr.addr, mr.rkey, 128) is mr
    with pytest.raises(MrAccessError):
        table.resolve(mr.addr, mr.rkey + 99, 8)  # bad rkey
    with pytest.raises(MrAccessError):
        table.resolve(mr.addr + 120, mr.rkey, 16)  # overrun


def test_distinct_keys_per_region():
    table = MrTable()
    a = table.register(8)
    b = table.register(8)
    assert a.rkey != b.rkey


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=256),
    st.binary(min_size=0, max_size=64),
)
def test_roundtrip_any_offset_and_payload(capacity_extra, payload):
    """Property: any in-bounds write reads back exactly."""
    mr = MemoryRegion(addr=PAGE, length=len(payload) + capacity_extra, lkey=1, rkey=1)
    offset = capacity_extra // 2
    mr.write(offset, payload)
    assert mr.read(offset, len(payload)) == payload


# ---------------------------------------------------------------------------
# The backing store: lazily zero-filled pages that behave like a bytearray
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """``("ok", result)`` or ``("raised", exception type)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type is the thing under comparison
        return "raised", type(exc)


_U64 = struct.Struct("<Q")
_SPAN = 96  # region length and log capacity: small, so edges are hit often
_OFFSETS = st.integers(min_value=-8, max_value=_SPAN + 8)


class BufferMachine(RuleBasedStateMachine):
    """A region and a log against twins whose ``buf`` is a ``bytearray``.

    The twins run the same class code over the buffer type the classes
    used to allocate, so every rule compares bytes and exception types
    between the two backings, out-of-bounds accesses included.
    """

    def __init__(self):
        super().__init__()
        self.table = MrTable()
        self.table.register(3 * PAGE)  # so the region under test is not first
        self.mr = self.table.register(_SPAN)
        self.mr_twin = MemoryRegion(self.mr.addr, _SPAN, self.mr.lkey, self.mr.rkey)
        self.mr_twin.buf = bytearray(_SPAN)
        self.log = CircularLog(_SPAN)
        self.log_twin = CircularLog(_SPAN)
        self.log_twin.buf = bytearray(_SPAN)

    @rule(offset=_OFFSETS, data=st.binary(max_size=24))
    def write(self, offset, data):
        assert _outcome(self.mr.write, offset, data) == _outcome(
            self.mr_twin.write, offset, data
        )

    @rule(offset=_OFFSETS, length=st.integers(min_value=-2, max_value=32))
    def read(self, offset, length):
        got = _outcome(self.mr.read, offset, length)
        assert got == _outcome(self.mr_twin.read, offset, length)
        if got[0] == "ok":
            assert type(got[1]) is bytes and len(got[1]) == length

    @rule(offset=_OFFSETS, length=st.integers(min_value=0, max_value=32),
          bad_rkey=st.booleans())
    def remote_resolve(self, offset, length, bad_rkey):
        raddr = self.mr.addr + offset
        rkey = self.mr.rkey + (1000 if bad_rkey else 0)
        got = _outcome(self.table.resolve, raddr, rkey, length)
        in_bounds = 0 <= offset < _SPAN and offset + length <= _SPAN
        if in_bounds and not bad_rkey:
            assert got == ("ok", self.mr)
            assert self.mr.read(self.mr.offset_of(raddr), length) == bytes(
                self.mr_twin.buf[offset : offset + length]
            )
        else:
            assert got == ("raised", MrAccessError)

    @rule(offset=_OFFSETS, value=st.integers(min_value=0, max_value=2**64 - 1))
    def pack_into_buf(self, offset, value):
        # what txn/store.py and the Pilaf / FaRM tables do on a borrowed buf
        assert _outcome(_U64.pack_into, self.mr.buf, offset, value) == _outcome(
            _U64.pack_into, self.mr_twin.buf, offset, value
        )
        assert _outcome(_U64.unpack_from, self.mr.buf, offset) == _outcome(
            _U64.unpack_from, self.mr_twin.buf, offset
        )

    @rule(index=st.integers(min_value=-2 * _SPAN, max_value=2 * _SPAN))
    def index_buf(self, index):
        assert _outcome(self.mr.buf.__getitem__, index) == _outcome(
            self.mr_twin.buf.__getitem__, index
        )

    @rule(start=st.integers(min_value=0, max_value=_SPAN),
          span=st.integers(min_value=0, max_value=16),
          delta=st.sampled_from((-3, -1, 1, 5)))
    def wrong_size_slice_assignment_raises(self, start, span, delta):
        # a bytearray would silently grow or shrink here, shifting every
        # later byte of the region
        stop = min(start + span, _SPAN)
        data = b"!" * max(0, stop - start + delta)
        if len(data) == stop - start:
            return
        with pytest.raises((IndexError, ValueError)):
            self.mr.buf[start:stop] = data
        with pytest.raises((IndexError, ValueError)):
            self.log.buf[start:stop] = data

    @rule(key=st.binary(max_size=40), value=st.binary(max_size=70))
    def append(self, key, value):
        assert _outcome(self.log.append, key, value) == _outcome(
            self.log_twin.append, key, value
        )

    @rule(back=st.integers(min_value=-8, max_value=3 * _SPAN))
    def read_log(self, back):
        pos = max(0, self.log.tail - back)
        assert _outcome(self.log.read, pos) == _outcome(self.log_twin.read, pos)

    @invariant()
    def same_bytes(self):
        assert len(self.mr.buf) == len(self.mr_twin.buf) == _SPAN
        assert self.mr.buf[:] == bytes(self.mr_twin.buf)
        assert len(self.log.buf) == len(self.log_twin.buf) == _SPAN
        assert self.log.buf[:] == bytes(self.log_twin.buf)
        assert (self.log.tail, self.log.wraps) == (self.log_twin.tail, self.log_twin.wraps)


BufferMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_buffers_match_a_bytearray_twin = BufferMachine.TestCase


def test_ten_thousand_small_regions_register_in_one_process():
    # one mapping each: must stay clear of vm.max_map_count (65 530 by
    # default; adjacent anonymous mappings merge, so far fewer are used)
    table = MrTable()
    regions = [table.register(64) for _ in range(10_000)]
    regions[0].write(0, b"first")
    regions[-1].write(59, b"last!")
    assert regions[0].read(0, 5) == b"first"
    assert regions[-1].read(59, 5) == b"last!"
    assert regions[5_000].read(0, 64) == b"\x00" * 64


_RSS_PROBE = """
import sys
from repro.bench.microbench import inbound_throughput
from repro.herd.cluster import HerdCluster
from repro.herd.config import HerdConfig
from repro.verbs import Transport
from repro.workloads.ycsb import Workload

def peak_mib():
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts at what its parent
    # held when it forked, and a test runner holds more than this adds
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0

after_import = peak_mib()
if sys.argv[1] == "herd":
    # benchmarks/perf's herd_large_put: six 16 MiB logs, 4 MiB appended
    config = HerdConfig(n_server_processes=6, window=4, log_bytes=1 << 24)
    cluster = HerdCluster(config, n_client_machines=17)
    cluster.add_clients(51, Workload(
        get_fraction=0.5, value_size=1000, n_keys=4096, distribution="zipfian"))
    cluster.wire()
    cluster.preload(range(4096), 1000)
else:
    # twelve verbs_grid cells: nine 1 MiB regions each, 32 B payloads
    for _ in range(12):
        inbound_throughput("WRITE", Transport.UC, 32)
print(peak_mib() - after_import)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("what, budget_mib", (("herd", 30.0), ("grid", 25.0)))
def test_resident_memory_follows_touched_pages_not_registered_lengths(what, budget_mib):
    """Peak RSS added over the post-import reading, in a fresh process.

    With zero-filled ``bytearray`` backings these read 107.5 MiB (the
    six logs alone are 96 MiB) and 64.9 MiB (finished testbeds are
    cyclic garbage, so their regions pile up); lazily filled, 11.3 and
    10.2.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, what],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    added = float(out.stdout.strip().splitlines()[-1])
    assert added < budget_mib
