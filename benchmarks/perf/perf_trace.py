"""Phase spans and the cProfile layer bucketer.

Spans are the driver's stopwatch in both modes: it opens one around each
of its own calls into the program (``import``, ``generate_inputs``,
``build``, ``preload``, ``run`` with one child per cell, ``check``), keeps
them in memory, and writes them as Chrome-trace JSON only at the end of a
traced repetition.  A span's self time is its duration minus the part its
child spans cover.  Spans *inside* ``src/repro`` are a later issue.

The bucketer turns a ``cProfile`` table into one self-time number per
layer (``repro.<package>`` by source path) plus call counts of named
public functions.  It works on the plain ``pstats`` dict so the tests can
feed it a synthetic table.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from perf_metrics import OTHER_BUCKETS, PROFILED_LAYERS

#: pstats key: (filename, first line, function name)
FuncKey = Tuple[str, int, str]
#: pstats value: (primitive calls, total calls, tottime, cumtime, callers)
FuncStat = Tuple[int, int, float, float, dict]

_DRIVER_DIR = os.path.dirname(os.path.abspath(__file__))
#: where the program under test lives: <repo>/src/repro
REPRO_DIR = os.path.normpath(os.path.join(_DRIVER_DIR, "..", "..", "src", "repro"))


class Span:
    __slots__ = ("id", "parent", "name", "unit", "cell", "start", "end")

    def __init__(self, id_: int, parent: Optional[int], name: str,
                 unit: Optional[int], cell: Optional[str], start: float) -> None:
        self.id = id_
        self.parent = parent
        self.name = name
        self.unit = unit
        self.cell = cell
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested wall-clock spans for one workload repetition."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: the unit the following spans belong to (None = setup)
        self.unit: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, self.unit, cell, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_time(self, span: Span) -> float:
        children = sum(s.duration for s in self.spans if s.parent == span.id)
        return span.duration - children

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace "complete" events (ts/dur in µs)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = []
        for sp in self.spans:
            events.append({
                "name": sp.name if sp.cell is None else "%s:%s" % (sp.name, sp.cell),
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (sp.start - origin) * 1e6,
                "dur": sp.duration * 1e6,
                "args": {
                    "id": sp.id,
                    "parent": sp.parent,
                    "workload": self.workload,
                    "unit": sp.unit,
                    "cell": sp.cell,
                    "self_us": self.self_time(sp) * 1e6,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# ---------------------------------------------------------------------------
# cProfile bucketing
# ---------------------------------------------------------------------------

#: count metric -> (path suffix under repro/, function names).  cProfile
#: keys carry no class, so the path pins which ``get``/``put`` is meant.
COUNTED_FUNCTIONS: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {
    # call_in goes through timeout, so counting it too would count twice
    "sim.events_scheduled": [("sim/engine.py", ("timeout", "_schedule"))],
    "sim.process_resumes": [("sim/engine.py", ("_resume",))],
    "sim.fifo_serves": [("sim/resources.py", ("serve",))],
    "sim.store_handoffs": [("sim/resources.py", ("put",))],
    "hw.link_transmits": [("hw/link.py", ("transmit",))],
    "hw.pcie_ops": [(
        "hw/pcie.py",
        ("pio_write", "doorbell", "dma_read", "dma_write", "dma_atomic"),
    )],
    "verbs.post_sends": [("verbs/device.py", ("post_send",))],
    "verbs.post_recvs": [("verbs/device.py", ("post_recv",))],
    "verbs.cq_pops": [("verbs/cq.py", ("pop", "poll", "try_pop"))],
    "kv.gets": [
        ("kv/mica.py", ("get",)),
        ("kv/cuckoo.py", ("get",)),
        ("kv/hopscotch.py", ("get",)),
    ],
    "kv.puts": [
        ("kv/mica.py", ("put",)),
        ("kv/cuckoo.py", ("put",)),
        ("kv/hopscotch.py", ("put",)),
    ],
    "workloads.ops_generated": [("workloads/ycsb.py", ("next_op",))],
    "ha.checker_calls": [("ha/checker.py", ("check_histories",))],
    "ha.updates_staged": [("ha/replication.py", ("stage_update",))],
}

#: metric -> the function whose *cumulative* time it reports
CUMULATIVE_FUNCTIONS: Dict[str, Tuple[str, str]] = {
    "ha.checker_self_s": ("ha/checker.py", "check_histories"),
    "txn.checker_self_s": ("ha/checker.py", "check_serializable"),
}


def _repro_relpath(filename: str) -> Optional[str]:
    """``<repo>/src/repro/sim/engine.py`` -> ``sim/engine.py``."""
    prefix = REPRO_DIR + os.sep
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):].replace(os.sep, "/")
    return rel if "/" in rel else None


def txn_checker_lines() -> List[Tuple[int, int]]:
    """Line ranges of ``repro/ha/checker.py`` that belong to ``txn``.

    The strict-serializability checker lives in ``repro.ha.checker``
    next to the linearizability one; only ``txn`` runs it, so its frames
    (and those of its nested helpers) are booked to the ``txn`` layer.
    """
    from repro.ha import checker

    ranges = []
    for obj in (checker.check_serializable, checker.final_read_txn, checker.TxnRecord):
        lines, first = inspect.getsourcelines(obj)
        ranges.append((first, first + len(lines) - 1))
    return ranges


def layer_of(key: FuncKey, txn_lines: Iterable[Tuple[int, int]] = ()) -> str:
    """The bucket a profiled function's self time is booked to."""
    filename, line, _func = key
    if filename == "~":
        return "builtins"
    rel = _repro_relpath(filename)
    if rel is not None:
        if rel == "ha/checker.py" and any(lo <= line <= hi for lo, hi in txn_lines):
            return "txn"
        package = rel.split("/", 1)[0]
        return package if package in PROFILED_LAYERS else "repro"
    if filename.startswith(_DRIVER_DIR + os.sep):
        return "driver"
    return "stdlib"


def bucket_profile(
    stats: Dict[FuncKey, FuncStat],
    txn_lines: Iterable[Tuple[int, int]] = (),
) -> Dict[str, float]:
    """Per-layer metrics from a ``pstats`` table.

    Returns ``X.self_s`` / ``X.self_share`` for every profiled layer,
    the ``other.*`` buckets (shares sum to 1 over all of them), every
    count in :data:`COUNTED_FUNCTIONS`, and the cumulative checker
    times.
    """
    txn_lines = list(txn_lines)
    self_s = {name: 0.0 for name in PROFILED_LAYERS + OTHER_BUCKETS}
    counts = {name: 0 for name in COUNTED_FUNCTIONS}
    cumulative = {name: 0.0 for name in CUMULATIVE_FUNCTIONS}
    timed = {target: name for name, target in CUMULATIVE_FUNCTIONS.items()}
    wanted = {}
    for metric, sources in COUNTED_FUNCTIONS.items():
        for rel, funcs in sources:
            for func in funcs:
                wanted[(rel, func)] = metric
    for key, (_cc, ncalls, tottime, cumtime, _callers) in stats.items():
        self_s[layer_of(key, txn_lines)] += tottime
        rel = _repro_relpath(key[0])
        if rel is None:
            continue
        if (rel, key[2]) in wanted:
            counts[wanted[(rel, key[2])]] += ncalls
        if (rel, key[2]) in timed:
            cumulative[timed[(rel, key[2])]] += cumtime
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for name, value in self_s.items():
        prefix = "other.%s_" % name if name in OTHER_BUCKETS else "%s." % name
        out[prefix + "self_s"] = value
        out[prefix + "self_share"] = value / total if total > 0 else 0.0
    out.update(counts)
    out.update(cumulative)
    return out
