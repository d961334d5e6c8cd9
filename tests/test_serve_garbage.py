"""A finished serving run leaves no cyclic garbage behind.

Replica loops, their completion hooks, attempts and the reconfig runtime
refer to each other while a cluster simulation runs.  Once
``simulate_cluster`` or ``simulate_scenario`` returns, reference counting
alone must free the run: whatever the cyclic collector still finds may
not grow with the number of requests, or peak memory would depend on
when the collector happens to run.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import ServiceModel
from repro.serve.faults import FaultConfig
from repro.serve.reconfig import AutoscaleSpec, ReconfigSpec, SplitSpec
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
)
from repro.serve.tenancy import simulate_scenario

SPAN = 1_000_000
SERVICE = ServiceModel(
    PerfCountersF(
        instructions=300, branch_misses=3.0, llc_misses=2.0, l1_hits=20.0
    )
)
#: A rate that keeps two 2-core replicas per shard busy but not swamped.
RATE = 0.6 * 2 * 2 * 2 * 1e9 / SERVICE.service_ns(2)


def garbage_left_by(run) -> int:
    """Objects the cyclic collector frees after ``run()`` and its result
    are gone, with automatic collection off throughout."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        del result
        return gc.collect()
    finally:
        gc.enable()


def faulted_hedged_cluster(n: int):
    arrivals = poisson_arrivals(RATE, n, seed=3)
    keys = request_keys(list(range(1_000, SPAN, 1_000)), n, seed=4)
    span = arrivals[-1]
    service_ns = SERVICE.service_ns(2)
    cluster = Cluster(
        shard_map=ShardMap.uniform(0, SPAN, 2),
        services=[SERVICE, SERVICE],
        n_replicas=2,
        n_cores=2,
        policy=RouterPolicy(
            max_attempts=4,
            hedge_after_ns=3.0 * service_ns,
            backoff_base_ns=span / 50,
            backoff_cap_ns=span / 5,
        ),
        faults=FaultConfig(
            crash_mttf_ns=span / 2,
            crash_mttr_ns=span / 10,
            slow_mttf_ns=span / 3,
            slow_mttr_ns=span / 8,
            slow_factor=4.0,
            seed=5,
        ),
    )

    def run():
        result = simulate_cluster(cluster, arrivals, keys)
        assert result.crashes > 0 and result.total_hedges > 0
        assert result.completed + result.failed == n
        return result

    return run


def managed_scenario(n: int):
    keys = np.arange(1_000, SPAN, 1_000, dtype=np.uint64)
    span = n / RATE * 1e9
    spec = ScenarioSpec(
        name="managed",
        tenants=(
            TenantSpec(
                name="gold",
                slo_class="gold",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.5 * RATE, n_requests=n // 2, seed=6
                ),
            ),
            TenantSpec(
                name="bronze",
                slo_class="bronze",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.5 * RATE, n_requests=n - n // 2, seed=7,
                    shape="flash",
                    params=(
                        ("spike_factor", 8.0),
                        ("spike_start_request", n // 10),
                        ("spike_len_requests", n // 5),
                    ),
                ),
            ),
        ),
        topology=TopologySpec(n_shards=2, n_replicas=2, n_cores=2),
        admission=AdmissionSpec(enabled=True, bronze_depth=3, silver_depth=9),
        reconfig=ReconfigSpec(
            splits=(SplitSpec(at_ns=0.2 * span, shard=0, at_key=SPAN // 4),),
            autoscale=AutoscaleSpec(
                interval_ns=span / 10, up_depth=3, down_depth=0,
                min_replicas=2, max_replicas=4,
            ),
        ),
    )

    def run():
        result = simulate_scenario(spec, [SERVICE, SERVICE], keys)
        assert result.cluster.epoch_count > 1
        assert sum(t.shed for t in result.tenants) > 0
        return result

    return run


@pytest.mark.parametrize(
    "make_run", [faulted_hedged_cluster, managed_scenario],
    ids=["cluster", "scenario"],
)
def test_garbage_does_not_grow_with_requests(make_run):
    small, large = make_run(200), make_run(2_000)
    small()  # first-call imports and caches are not the run's garbage
    assert garbage_left_by(large) == garbage_left_by(small)
