"""Determinism and seed robustness of whole-system experiments."""

import os
import subprocess
import sys

import pytest

from repro.bench.microbench import inbound_throughput, tune_window
from repro.herd import HerdCluster, HerdConfig
from repro.verbs import Transport
from repro.workloads import Workload


def run_herd_cell(seed: int) -> float:
    cluster = HerdCluster(
        HerdConfig(n_server_processes=4, window=4), n_client_machines=6, seed=seed
    )
    cluster.add_clients(12, Workload(get_fraction=0.9, value_size=32, n_keys=1 << 10))
    cluster.preload(range(1 << 10), 32)
    return cluster.run(warmup_ns=20_000, measure_ns=80_000).mops


def test_identical_seeds_reproduce_bit_identical_results():
    """The whole stack — RNGs, event ordering, caches — is
    deterministic given a seed."""
    assert run_herd_cell(seed=42) == run_herd_cell(seed=42)


def test_different_seeds_agree_within_noise():
    """No result in this repo hinges on a lucky seed."""
    results = [run_herd_cell(seed=s) for s in (1, 2, 3)]
    assert max(results) - min(results) < 0.1 * max(results)


def test_fault_injection_does_not_perturb_workload_streams():
    """Satellite of the fault-injection PR: every randomness source has
    a named child stream of the cluster seed, so turning faults on must
    not change which keys the workload draws — only how many draws fit
    in the horizon.  The faulty run's key sequence per client must be a
    prefix-compatible match of the clean run's."""
    from repro.faults import FaultPlan

    def record_keys(with_faults: bool):
        cluster = HerdCluster(
            HerdConfig(
                n_server_processes=2, window=4, retry_timeout_ns=30_000.0
            ),
            n_client_machines=2,
            seed=77,
        )
        cluster.add_clients(4, Workload(get_fraction=0.5, value_size=32, n_keys=256))
        cluster.preload(range(256), 32)
        if with_faults:
            cluster.install_faults(
                FaultPlan(seed=77).drop(rate=0.05).duplicate(rate=0.02)
            )
        keys = [[] for _ in cluster.clients]
        for client in cluster.clients:
            def next_op(_orig=client.stream.next_op, _log=keys[client.client_id]):
                op = _orig()
                _log.append(op.key)
                return op

            client.stream.next_op = next_op
        cluster.run(warmup_ns=0, measure_ns=150_000)
        return keys

    clean = record_keys(with_faults=False)
    faulty = record_keys(with_faults=True)
    for c_keys, f_keys in zip(clean, faulty):
        n = min(len(c_keys), len(f_keys))
        assert n > 20
        assert c_keys[:n] == f_keys[:n]


def test_microbenchmarks_are_deterministic():
    a = inbound_throughput("WRITE", Transport.UC, 32)
    b = inbound_throughput("WRITE", Transport.UC, 32)
    assert a == b


def test_tune_window_finds_the_saturating_window():
    """Section 3.1: windows are tuned per experiment.  Tiny windows
    cannot cover the round trip; tuning finds one that can."""
    def measure(window):
        return inbound_throughput("WRITE", Transport.UC, 32, n_clients=2, window=window)

    best_window, best_mops = tune_window(measure, candidates=(1, 4, 16, 48))
    assert best_window >= 16
    assert best_mops > measure(1)


#: one run per case, printed as its fingerprint by a fresh interpreter
PROCESS_CASES = {
    "chaos-kill-primary": (
        "from repro.faults import run_chaos\n"
        "print(run_chaos(seed=3, scenario='kill-primary', horizon_ns=100_000).fingerprint)"
    ),
    "chaos-classic": (
        "from repro.faults import run_chaos\n"
        "print(run_chaos(seed=4, horizon_ns=100_000).fingerprint)"
    ),
    "txn-rpc": (
        "from repro.bench.figures import run_txn\n"
        "print(run_txn('rpc', hot_fraction=0.9, measure_ns=50_000, seed=5).fingerprint)"
    ),
    "txn-onesided": (
        "from repro.bench.figures import run_txn\n"
        "print(run_txn('onesided', hot_fraction=0.9, measure_ns=50_000, seed=5).fingerprint)"
    ),
}


@pytest.mark.parametrize("case", sorted(PROCESS_CASES))
def test_fingerprint_does_not_depend_on_the_hash_seed(case):
    """Sets and dicts sit on the hot paths (free window slots, quarantine
    maps, the checkers' memos): no result may depend on the order str /
    bytes hashing gives them, which ``PYTHONHASHSEED`` changes per
    process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    fingerprints = set()
    for hash_seed in ("0", "1", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", PROCESS_CASES[case]],
            env=dict(env, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.PIPE, check=True, text=True, timeout=60,
        ).stdout
        fingerprints.add(out.strip())
    assert len(fingerprints) == 1, fingerprints
