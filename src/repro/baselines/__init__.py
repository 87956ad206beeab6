"""Baseline systems the paper compares HERD against.

* :mod:`repro.baselines.echo` — ECHO servers over every verb pair and
  optimization level (Figures 2, 5, 7): the upper bound for one-RTT
  request-reply systems.
* :mod:`repro.baselines.pilaf` — Pilaf-em-OPT (Section 5.1.1): READ-based
  cuckoo GETs, SEND/RECV PUTs, with all of the paper's optimizations.
* :mod:`repro.baselines.farm` — FaRM-em and FaRM-em-VAR (Section 5.1.2):
  single-READ hopscotch GETs (inline values) or two-READ GETs (VAR),
  WRITE-based PUTs over UC.

Like the paper's own comparison, :class:`PilafCluster` and
:class:`FarmCluster` omit the backing data structures and answer
instantly — this gives the baselines the maximum possible advantage
(Section 5.1).  :class:`PilafFullCluster` and :class:`FarmFullCluster`
are the same systems with their real cuckoo / hopscotch tables inside
registered memory: clients parse the bytes they READ and the server
runs every insert.  They check the emulation; each pair shares one
client, server process and wiring loop in its module.
"""

from repro.baselines.echo import EchoCluster, EchoConfig
from repro.baselines.farm import FarmCluster, FarmConfig, FarmFullCluster, FarmFullConfig
from repro.baselines.pilaf import (
    PilafCluster,
    PilafConfig,
    PilafFullCluster,
    PilafFullConfig,
)

__all__ = [
    "EchoCluster",
    "EchoConfig",
    "FarmCluster",
    "FarmConfig",
    "FarmFullCluster",
    "FarmFullConfig",
    "PilafCluster",
    "PilafConfig",
    "PilafFullCluster",
    "PilafFullConfig",
]
