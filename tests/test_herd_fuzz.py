"""Configuration fuzzing: HERD stays correct across the config space."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.herd import HerdCluster, HerdConfig
from repro.hw import APT, SUSITNA
from repro.workloads import Workload


@settings(max_examples=12, deadline=None)
@given(
    n_servers=st.integers(min_value=1, max_value=8),
    window=st.integers(min_value=1, max_value=8),
    n_clients=st.integers(min_value=1, max_value=12),
    get_fraction=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    value_size=st.sampled_from([1, 17, 32, 150, 300, 1000]),
    transport=st.sampled_from(["UC", "DC"]),
    profile=st.sampled_from([APT, SUSITNA]),
)
def test_any_configuration_runs_clean(
    n_servers, window, n_clients, get_fraction, value_size, transport, profile
):
    """Property: for any sane configuration, a short run makes
    progress, balances its windows, never drops a response, and never
    produces a failed or mismatched operation."""
    cluster = HerdCluster(
        HerdConfig(
            n_server_processes=n_servers,
            window=window,
            request_transport=transport,
        ),
        profile=profile,
        n_client_machines=min(4, n_clients),
        seed=window * 101 + n_clients,
    )
    n_keys = 128
    cluster.add_clients(
        n_clients,
        Workload(get_fraction=get_fraction, value_size=value_size, n_keys=n_keys),
    )
    cluster.preload(range(n_keys), value_size)
    result = cluster.run(warmup_ns=0, measure_ns=60_000)

    assert result.ops > 0
    assert result.extra["get_misses"] == 0
    for client in cluster.clients:
        assert client.failures == 0
        assert client.outstanding <= window
        assert client.issued == client.completed + client.outstanding
        for qp in client.ud_qps:
            assert qp.rnr_drops == 0
    # Request/response conservation at the servers.
    responses = sum(s.responses for s in cluster.servers)
    completed = sum(c.completed for c in cluster.clients)
    assert responses >= completed


@settings(max_examples=8, deadline=None)
@given(
    loss_permille=st.integers(min_value=0, max_value=50),
    toward_server=st.booleans(),
    n_servers=st.integers(min_value=1, max_value=4),
    window=st.integers(min_value=1, max_value=4),
    get_fraction=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_loss_recovery_never_corrupts(
    loss_permille, toward_server, n_servers, window, get_fraction
):
    """Property: under any modest loss rate in either direction, the
    retry protocol completes operations without a single wrong or
    failed response."""
    cluster = HerdCluster(
        HerdConfig(
            n_server_processes=n_servers,
            window=window,
            retry_timeout_ns=60_000.0,
        ),
        n_client_machines=2,
        seed=loss_permille * 7 + n_servers,
    )
    cluster.add_clients(
        4, Workload(get_fraction=get_fraction, value_size=32, n_keys=128)
    )
    cluster.preload(range(128), 32)
    rate = loss_permille / 1000.0
    plan = FaultPlan(seed=loss_permille)
    if toward_server:
        plan.drop(dst="server", rate=rate)
    else:
        plan.drop(src="server", rate=rate)
    cluster.install_faults(plan)
    result = cluster.run(warmup_ns=0, measure_ns=400_000)
    assert result.ops > 0
    assert result.extra["get_misses"] == 0
    assert sum(c.failures for c in cluster.clients) == 0
