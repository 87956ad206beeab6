"""Golden digests: every cluster's simulated result, pinned.

Each case builds one cluster at a small fixed size and seed, runs one
window, and hashes ``(ops, mops, latency summary, extra)``.  The
digests were recorded at the commit *before* the clusters moved onto
the shared :class:`repro.verbs.testbed.Testbed`, so any refactor of the
construction or wiring path that perturbs machine seeds, QP numbering,
process start order or the measurement window shows up here as a
changed digest — for the baseline and variant clusters the band tests
alone would not notice.

A digest changes only with a deliberate change to simulated behaviour;
re-pin it with the reason in the commit message.
"""

import hashlib

import pytest

from repro.baselines.echo import EchoCluster, EchoConfig
from repro.baselines.farm import (
    FarmCluster,
    FarmConfig,
    FarmFullCluster,
    FarmFullConfig,
)
from repro.baselines.pilaf import (
    PilafCluster,
    PilafConfig,
    PilafFullCluster,
    PilafFullConfig,
)
from repro.herd import HerdCluster, HerdConfig
from repro.herd.ud_variant import SendSendHerdCluster
from repro.qos import QosConfig
from repro.txn import QueueConfig, TxnCluster, TxnConfig, TxnQueueCluster
from repro.workloads import Workload

N_KEYS = 512
WINDOW = dict(warmup_ns=5_000.0, measure_ns=60_000.0)


def _digest(result, *more) -> str:
    """sha256 over the result's simulated numbers (repr keeps every
    float bit; dicts are sorted so insertion order is not pinned)."""
    payload = (
        result.ops,
        result.mops,
        sorted(result.latency.items()),
        sorted(result.extra.items()),
    ) + more
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _workload(value_size=32, get_fraction=0.9):
    return Workload(get_fraction=get_fraction, value_size=value_size, n_keys=N_KEYS)


def _herd(cls=HerdCluster, **cfg):
    cluster = cls(
        HerdConfig(n_server_processes=2, window=2, **cfg), n_client_machines=3, seed=11
    )
    cluster.add_clients(5, _workload(get_fraction=0.5))
    cluster.preload(range(N_KEYS), 32)
    return _digest(cluster.run(**WINDOW))


def _echo(config):
    cluster = EchoCluster(config, n_clients=5, n_client_machines=3, seed=11)
    return _digest(cluster.run(**WINDOW))


def _kv_baseline(cls, config, preload=False):
    cluster = cls(
        config,
        _workload(config.value_bytes),
        n_clients=5,
        n_client_machines=3,
        seed=11,
    )
    if preload:
        cluster.preload(range(N_KEYS))
    result = cluster.run(**WINDOW)
    if preload:  # a full system: every GET checked its bytes, every PUT its key
        assert result.extra["wrong_values"] == 0
        assert cluster.table.items == N_KEYS
    return _digest(result)


def _txn(dataplane):
    cluster = TxnCluster(
        TxnConfig(dataplane=dataplane, n_keys=64, hot_fraction=0.3),
        n_clients=5,
        n_client_machines=3,
        seed=11,
    )
    report = cluster.run(**WINDOW)
    assert report.ok, report.violation
    return _digest(report.result, report.commits, report.aborts, report.fingerprint)


def _queue(dataplane):
    cluster = TxnQueueCluster(
        QueueConfig(dataplane=dataplane, ops_per_client=12),
        n_clients=5,
        n_client_machines=3,
        seed=11,
    )
    report = cluster.run()
    assert report.ok, report.violations
    return _digest(
        report.result,
        report.enqueued,
        report.dequeued,
        report.enq_retries,
        report.deq_retries,
    )


CASES = {
    "herd-uc": lambda: _herd(),
    "herd-dc": lambda: _herd(request_transport="DC"),
    # the shared server-QP pool is the one asymmetric wiring branch
    "herd-qp-pool": lambda: _herd(
        qos=QosConfig(qp_pool=2), retry_timeout_ns=40_000.0
    ),
    "herd-send-send": lambda: _herd(SendSendHerdCluster),
    "echo-write": lambda: _echo(EchoConfig.wr_send()),
    "echo-send": lambda: _echo(EchoConfig.send_send()),
    "pilaf": lambda: _kv_baseline(PilafCluster, PilafConfig()),
    "farm": lambda: _kv_baseline(FarmCluster, FarmConfig()),
    # values above the inline limit take the staged, NIC-fetched PUT path
    "pilaf-512": lambda: _kv_baseline(PilafCluster, PilafConfig(value_bytes=512)),
    "farm-512": lambda: _kv_baseline(FarmCluster, FarmConfig(value_bytes=512)),
    "farm-var": lambda: _kv_baseline(FarmCluster, FarmConfig(inline_values=False)),
    "pilaf-full": lambda: _kv_baseline(
        PilafFullCluster, PilafFullConfig(n_buckets=2 ** 11), preload=True
    ),
    "farm-full": lambda: _kv_baseline(
        FarmFullCluster, FarmFullConfig(n_slots=2 ** 12), preload=True
    ),
    # full-system PUTs above the inline limit, pinned once they stopped
    # mangling: Pilaf's raised TypeError; FaRM's stored a READ sink's
    # bytes under a foreign key (same digest, as no GET read that key:
    # the table-size check above is what fails on the old code)
    "pilaf-full-512": lambda: _kv_baseline(
        PilafFullCluster,
        PilafFullConfig(n_buckets=2 ** 11, value_bytes=512),
        preload=True,
    ),
    "farm-full-512": lambda: _kv_baseline(
        FarmFullCluster, FarmFullConfig(n_slots=2 ** 12, value_bytes=512), preload=True
    ),
    "farm-full-var": lambda: _kv_baseline(
        FarmFullCluster,
        FarmFullConfig(n_slots=2 ** 12, inline_values=False),
        preload=True,
    ),
    "txn-rpc": lambda: _txn("rpc"),
    "txn-onesided": lambda: _txn("onesided"),
    "queue-rpc": lambda: _queue("rpc"),
    "queue-onesided": lambda: _queue("onesided"),
}

#: recorded at parent commit 14fcb65 (python tests/test_cluster_golden.py);
#: "pilaf" re-pinned once since, see its comment.  "pilaf-512", "farm-512",
#: "farm-var" and "farm-full-var" recorded at 292bfb5, before the emulated
#: and full baselines were merged into one implementation each; the two
#: "*-full-512" digests after their PUT fix (see CASES)
GOLDEN = {
    "echo-send": "0ae31f2ac2c603bdac61e7b3a48b697789042fbe266c6d3ea283241581f35cd8",
    "echo-write": "7a03b69793fb916328f2ffef4f0abcbff88b8e941d595af5a511dc04ff4c05fe",
    "farm": "fb520821fd9e9361162961f8fa47334ac4c2b0e40d979137828cdf7fdb79149a",
    "farm-512": "934f4e3663de78ca9d01a24ebddac3464da5c176b4248ffccb30412e741246fe",
    "farm-full": "03e473c91dec9986576e420c6ecb6937d43c8068e1f564162ef37a6a4fa89786",
    "farm-full-512": "2fce9d785fb076d22215b72e556d74cccb298ce7a0daea30317101a0f03e8661",
    "farm-full-var": "a17ee7e21761278836e9a23cbb85a6631016ec195a55a32d9a602e156272e155",
    "farm-var": "b629fe60cea31680f7101aff4dceedd1b8f03280d4520c3ef896475ae9065343",
    "herd-dc": "19c30fd95abb4347056ea1a720b67057eda8d058f1350ec9e367b9b527e2fdbd",
    "herd-qp-pool": "bb82bedf8c81b6f84c05bf67fc762015c116d8c5856da08845d92c0d0de33122",
    "herd-send-send": "47c44dd4ae67c1f6fd602ce80c86c0da3c0a3640fad64a297ff1afd1b9230eef",
    "herd-uc": "9c6c236f10e896a48536ccc4cb087c419360cc75e65a6172f3ca85706a66a9eb",
    # re-pinned by the datapath fusion: two client ports admitting at the
    # same instant (t = 665.5 ns) swap order; 251 ops, 4.18 Mops, p50 and
    # probe counts unchanged, mean latency 4.815939 -> 4.815859 us
    # (docs/PERF.md, "Digests that moved")
    "pilaf": "57b4896aabffd131671dd3a10bf3308b3751606e05e4a3cb0226eb165fd68c35",
    "pilaf-512": "c0088c09bb4d02055e2db80dc7e0c413d74e0136fde9c46504c7144d5952411c",
    "pilaf-full": "6a054a2b5c42c5a6084b0ddd4916c2de0acd582353da9e97d91977a4128c81c0",
    "pilaf-full-512": "fb3cc1eb2ca0309c4948b23e575f4f50dda4a91e608c2c28cc17478400b2c8d4",
    "queue-onesided": "84543876c86c1ef487d5624ba3e4decc241ec490f1df990801e50fe22ec17069",
    "queue-rpc": "624670ac70faffb0f8af400b35b6eda8d1951753ee08ae4f69ab36ae7bb8a9f4",
    "txn-onesided": "3f91fecc0e2fdea005e84880eecc29629e1187a2637a5fb2bd10ec7422ba2087",
    "txn-rpc": "20709959e6a1da8b0384b16598366562467ad4f4998620ac4a156effb922c2ec",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cluster_digest_is_pinned(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":  # prints the table to paste into GOLDEN
    for case in sorted(CASES):
        print('    "%s": "%s",' % (case, CASES[case]()))
