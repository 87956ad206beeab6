"""HERD, reproduced: RDMA key-value services on a simulated fabric.

A from-scratch reproduction of "Using RDMA Efficiently for Key-Value
Services" (Kalia, Kaminsky, Andersen — SIGCOMM 2014) on a calibrated
discrete-event model of ConnectX-3 hardware.

The packages, bottom-up:

* :mod:`repro.sim` — discrete-event kernel
* :mod:`repro.hw` — PCIe / RNIC / fabric / DRAM models (Table 2 profiles)
* :mod:`repro.verbs` — the RDMA verbs API over the model (Table 1 rules)
* :mod:`repro.kv` — MICA / cuckoo / hopscotch backends (real bytes)
* :mod:`repro.herd` — the paper's system, with §5.5's SEND/SEND requests
* :mod:`repro.baselines` — Pilaf-em, FaRM-em, ECHO servers, full systems
* :mod:`repro.workloads` — uniform and Zipf(.99) operation streams
* :mod:`repro.bench` — per-figure experiments and the herd-bench CLI
* :mod:`repro.analysis` — closed-form bottleneck cross-validation

Start at :class:`repro.herd.HerdCluster` or ``examples/quickstart.py``.
The names below are resolved on first access, so ``import repro.sim``
loads the kernel and nothing above it.
"""

import importlib
import sys
from functools import reduce
from operator import add

__version__ = "1.0.0"


def _lazy_surface(package, sources):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``: each name in
    ``sources`` (submodule -> names) is imported from its submodule on
    first access and then kept as a plain attribute."""
    home = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        value = getattr(importlib.import_module(home[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__


def _pairwise_sum(block, lo, n):
    """The ``n`` values ``block(lo, lo + n)`` (a list of floats) summed
    in NumPy's pairwise order: up to 128 values in eight interleaved
    accumulators, longer runs split at ``n // 2`` rounded down to a
    multiple of 8.  ``block`` is asked only for runs of at most 128, so
    a long series need never exist as one list.  (``sum`` is not used:
    since Python 3.12 it compensates, NumPy does not.)  Shared by
    :mod:`repro.sim.stats` and :func:`repro.workloads.zipf.zeta`, and
    kept here so that neither loads the other's layer."""
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(block, lo, half) + _pairwise_sum(block, lo + half, n - half)
    xs = block(lo, lo + n)
    if n < 8:
        return reduce(add, xs, 0.0)
    stop = n - n % 8
    r = [reduce(add, xs[j + 8:stop:8], xs[j]) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, xs[stop:], total)


__getattr__, __dir__ = _lazy_surface(__name__, {
    ".herd": ("HerdCluster", "HerdConfig"),
    ".hw": ("APT", "SUSITNA", "HardwareProfile"),
    ".workloads": ("Workload",),
})

__all__ = [
    "APT",
    "SUSITNA",
    "HardwareProfile",
    "HerdCluster",
    "HerdConfig",
    "Workload",
    "__version__",
]
