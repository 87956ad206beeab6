"""The knob catalogue: every public config's fields, counted and documented.

A setting that no figure, scenario, sweep or example varies is a named
constant, not a config field (DESIGN.md, "Named constants").  This
file makes adding a field a deliberate edit: the count below must
change with it, and docs/API.md must name it.
"""

import dataclasses
import os
import re

import pytest

from repro.baselines.echo import EchoConfig
from repro.baselines.farm import FarmConfig, FarmFullConfig
from repro.baselines.pilaf import PilafConfig, PilafFullConfig
from repro.herd.config import HerdConfig
from repro.hw.params import HardwareProfile
from repro.qos.config import QosConfig
from repro.txn.cluster import TxnConfig
from repro.txn.queue import QueueConfig
from repro.workloads.ycsb import Workload

API_MD = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "API.md")

#: config -> its number of fields
FIELD_COUNTS = {
    HerdConfig: 16,
    QosConfig: 8,
    TxnConfig: 11,
    QueueConfig: 6,
    EchoConfig: 11,
    PilafConfig: 3,
    PilafFullConfig: 4,
    FarmConfig: 4,
    FarmFullConfig: 5,
    Workload: 4,
    # the measured machine, not a knob: each field is documented where
    # it is declared, in repro.hw.params
    HardwareProfile: 47,
}

DOCUMENTED_IN_API = [cls for cls in FIELD_COUNTS if cls is not HardwareProfile]


@pytest.mark.parametrize("cls", list(FIELD_COUNTS), ids=lambda cls: cls.__name__)
def test_field_count_is_pinned(cls):
    assert len(dataclasses.fields(cls)) == FIELD_COUNTS[cls]


@pytest.mark.parametrize("cls", DOCUMENTED_IN_API, ids=lambda cls: cls.__name__)
def test_api_md_names_every_field(cls):
    with open(API_MD) as fh:
        api = fh.read()
    missing = [
        f.name for f in dataclasses.fields(cls)
        if not re.search(r"`%s\b" % f.name, api) and not re.search(r"\b%s=" % f.name, api)
    ]
    assert missing == []
