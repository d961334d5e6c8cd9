"""Differential tests: reconfiguration's no-op is *exactly* nothing.

Two invariants pin the reconfig layer onto the existing simulators:

* **No-op identity.**  A cluster or scenario run with ``ReconfigSpec()``
  (no triggers) attached is byte-identical to the same run with no spec
  at all -- every per-request float, on sharded, faulted and
  multi-tenant topologies, on both event queues (the ``event_queue``
  fixture: the simulators' sealed queue and the plain-heap oracle), and
  whether the scenario fans out serially or on a 2-process pool.
  Attaching the zero spec must not even construct a runtime.
* **Queue identity under *active* reconfig.**  With splits, rebuilds
  and autoscaling firing mid-run, the sealed queue and the plain-heap
  oracle still produce identical records, epoch histories and telemetry
  time-series (``to_dict()`` compared wholesale, the same bar
  ``test_telemetry_differential.py`` sets for faults).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import ServiceModel
from repro.serve.faults import FaultConfig
from repro.serve.reconfig import (
    AutoscaleSpec,
    RebuildSpec,
    ReconfigSpec,
    SplitSpec,
)
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import TopologySpec, single_tenant_spec
from repro.serve.sweep import clear_sim_results, run_sim_tasks, scenario_task
from repro.serve.telemetry import TelemetryConfig
from repro.serve.tenancy import simulate_scenario
from serve_reference import run_on_both_queues

RATE = 3e5
N_REQ = 400
SPAN_NS = N_REQ / RATE * 1e9


def counters(instructions=500):
    return PerfCountersF(
        instructions=instructions,
        branch_misses=5.0,
        llc_misses=30.0,
        l1_hits=40.0,
    )


class FakeMeasurement:
    """Duck-typed stand-in for repro.bench.harness.Measurement."""

    def __init__(self):
        self.index = "X"
        self.config = {}
        self.size_bytes = 1 << 20
        self.counters = counters()


@pytest.fixture(scope="module")
def keys():
    raw = np.random.default_rng(0).integers(
        0, 2**40, size=6000, dtype=np.uint64
    )
    return np.unique(raw)


def cluster_run(keys, reconfig, faults=None, seed=5):
    shard_map = ShardMap.from_keys(keys, 3)
    cluster = Cluster(
        shard_map=shard_map,
        services=[ServiceModel(counters()) for _ in range(3)],
        n_replicas=2,
        n_cores=2,
        policy=RouterPolicy(),
        faults=faults,
        reconfig=reconfig,
    )
    return simulate_cluster(
        cluster,
        poisson_arrivals(RATE, N_REQ, seed),
        request_keys(keys, N_REQ, seed),
        fault_horizon_ns=SPAN_NS if faults is not None else None,
        telemetry=TelemetryConfig(window_ns=SPAN_NS / 8),
    )


def record_tuple(r):
    return (
        r.rid,
        r.key,
        r.shard,
        r.arrival_ns,
        r.attempts,
        r.retries,
        r.hedged,
        r.completed,
        r.failed,
        r.start_ns,
        r.finish_ns,
        r.replica,
        r.core,
    )


def assert_records_identical(a_records, b_records):
    assert len(a_records) == len(b_records)
    for a, b in zip(a_records, b_records):
        assert record_tuple(a) == record_tuple(b)


def active_spec_for(keys):
    """A spec exercising all three operations inside the run, its split
    key pinned to the midpoint of shard 0's range."""
    bounds = ShardMap.from_keys(keys, 3).lower_bounds
    at_key = bounds[0] + (bounds[1] - bounds[0]) // 2
    return ReconfigSpec(
        splits=(SplitSpec(at_ns=0.2 * SPAN_NS, shard=0, at_key=at_key),),
        rebuilds=(
            RebuildSpec(
                at_ns=0.45 * SPAN_NS,
                shard=1,
                replica=0,
                build_ns=0.2 * SPAN_NS,
                speedup=1.25,
            ),
        ),
        autoscale=AutoscaleSpec(
            interval_ns=SPAN_NS / 8,
            up_depth=2,
            down_depth=0,
            min_replicas=2,
            max_replicas=4,
        ),
    )


class TestNoOpSpecIsByteIdentical:
    """``ReconfigSpec()`` attached == no spec at all, exactly."""

    def test_sharded_cluster(self, keys, event_queue):
        base = cluster_run(keys, reconfig=None)
        noop = cluster_run(keys, reconfig=ReconfigSpec())
        assert_records_identical(noop.records, base.records)
        assert noop.makespan_ns == base.makespan_ns
        assert noop.telemetry.to_dict() == base.telemetry.to_dict()
        # The zero spec never constructs reconfig state.
        assert noop.epochs is None and base.epochs is None
        assert noop.epoch_count == 1 and noop.final_shards == 3

    def test_faulted_cluster(self, keys, event_queue):
        faults = FaultConfig(
            crash_mttf_ns=SPAN_NS / 3,
            crash_mttr_ns=SPAN_NS / 6,
            slow_mttf_ns=SPAN_NS / 2,
            slow_mttr_ns=SPAN_NS / 5,
            seed=9,
        )
        base = cluster_run(keys, reconfig=None, faults=faults)
        noop = cluster_run(keys, reconfig=ReconfigSpec(), faults=faults)
        assert_records_identical(noop.records, base.records)
        assert noop.telemetry.to_dict() == base.telemetry.to_dict()

    def test_tenant_scenario(self, keys, event_queue):
        spec = single_tenant_spec(
            RATE,
            N_REQ,
            seed=4,
            topology=TopologySpec(n_shards=3, n_replicas=2, n_cores=2),
        )
        services = [ServiceModel(counters()) for _ in range(3)]
        base = simulate_scenario(spec, services, keys)
        noop = simulate_scenario(
            spec.with_reconfig(ReconfigSpec()),
            [ServiceModel(counters()) for _ in range(3)],
            keys,
        )
        assert_records_identical(noop.cluster.records, base.cluster.records)
        for a, b in zip(noop.tenants, base.tenants):
            assert (a.requests, a.completed, a.failed, a.shed) == (
                b.requests,
                b.completed,
                b.failed,
                b.shed,
            )
            assert a.latencies_ns == b.latencies_ns

    def test_serial_vs_jobs(self, event_queue):
        """The no-op identity holds through the task fan-out layer."""
        spec = single_tenant_spec(
            RATE,
            N_REQ,
            seed=4,
            topology=TopologySpec(n_shards=2, n_replicas=2, n_cores=2),
        )
        tasks = [
            scenario_task(
                s, "amzn", 2000, 0, [FakeMeasurement(), FakeMeasurement()]
            )
            for s in (spec, spec.with_reconfig(ReconfigSpec()))
        ]
        serial = run_sim_tasks(tasks, jobs=1)
        clear_sim_results()  # the pool must simulate, not replay the memo
        pooled = run_sim_tasks(tasks, jobs=2)
        assert serial[0] == serial[1]  # no-op spec == no spec
        assert serial == pooled  # pool == serial, byte for byte


class TestActiveReconfigEngineIdentity:
    """Split + rebuild + autoscale mid-run: the sealed queue and the
    plain-heap oracle stay byte-identical."""

    def test_records_epochs_telemetry_identical(self, keys, monkeypatch):
        a, b = run_on_both_queues(
            monkeypatch,
            lambda: cluster_run(keys, reconfig=active_spec_for(keys)),
        )
        assert_records_identical(a.records, b.records)
        assert a.epochs == b.epochs
        assert a.rebuilds == b.rebuilds
        assert a.scale_events == b.scale_events
        assert a.live_replicas == b.live_replicas
        # Telemetry series across the active reconfig, wholesale.
        assert a.telemetry.to_dict() == b.telemetry.to_dict()
        # The run actually reconfigured (the test isn't vacuous).
        assert len(a.epochs) == 2 and a.final_shards == 4
        assert len(a.rebuilds) == 1

    def test_scenario_active_reconfig_engines_identical(
        self, keys, monkeypatch
    ):
        spec = single_tenant_spec(
            RATE,
            N_REQ,
            seed=4,
            topology=TopologySpec(n_shards=3, n_replicas=2, n_cores=2),
        ).with_reconfig(active_spec_for(keys))

        def run():
            r = simulate_scenario(
                spec,
                [ServiceModel(counters()) for _ in range(3)],
                keys,
                telemetry=TelemetryConfig(window_ns=SPAN_NS / 8),
            )
            return (
                [record_tuple(x) for x in r.cluster.records],
                r.cluster.telemetry.to_dict(),
                r.cluster.epochs,
            )

        a, b = run_on_both_queues(monkeypatch, run)
        assert a == b
