"""Differential tests: the tenancy layer vs the raw cluster simulator,
and the ``ext_tenants`` report across execution strategies.

The tentpole invariant, one layer up from
``test_cluster_differential.py``: a single-tenant, no-admission-control
:class:`ScenarioSpec` replayed through the tenancy layer IS the direct
:func:`simulate_cluster` run -- the degenerate key space samples the
exact ``request_keys`` stream, the trace merge is the identity, and the
overridden hooks are behaviour-preserving -- so every per-request float
and every percentile table must be *byte-identical* (exact ``==``, no
approx).  This holds with sharded/replicated topologies, non-default
router policies, and fault injection; only admission control (the new
behaviour) is allowed to break it.

Every byte-identity test runs on both event queues (the ``event_queue``
fixture): the simulators' sealed queue and the plain-heap oracle.
``TestCrossEngineByteIdentity`` additionally compares the two queues'
runs against each other -- including on admission-control runs, where
both must shed the *same* requests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.cache import MeasurementCache
from repro.bench.config import BenchSettings
from repro.bench.experiments import common, ext_tenants
from repro.bench.parallel import run_cells
from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import ServiceModel
from repro.serve.faults import FaultConfig
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import (
    AdmissionSpec,
    FaultSpec,
    PolicySpec,
    TopologySpec,
    single_tenant_spec,
)
from repro.serve.tenancy import replay_trace, simulate_scenario
from repro.serve.trace import TenantTrace
from serve_reference import run_on_both_queues

RATE = 3e5
N_REQ = 400


def counters(instructions=500):
    return PerfCountersF(
        instructions=instructions,
        branch_misses=5.0,
        llc_misses=30.0,
        l1_hits=40.0,
    )


@pytest.fixture(scope="module")
def keys():
    raw = np.random.default_rng(0).integers(
        0, 2**40, size=6000, dtype=np.uint64
    )
    return np.unique(raw)


def services(n_shards):
    return [ServiceModel(counters()) for _ in range(n_shards)]


def direct_run(keys, seed, topology, policy, faults, horizon):
    """The equivalent hand-wired cluster run for a degenerate spec."""
    shard_map = ShardMap.from_keys(keys, topology.n_shards)
    cluster = Cluster(
        shard_map=shard_map,
        services=services(topology.n_shards),
        n_replicas=topology.n_replicas,
        n_cores=topology.n_cores,
        policy=policy,
        faults=faults,
    )
    return simulate_cluster(
        cluster,
        poisson_arrivals(RATE, N_REQ, seed),
        request_keys(keys, N_REQ, seed),
        fault_horizon_ns=horizon,
    )


def assert_records_identical(tenancy_records, cluster_records):
    assert len(tenancy_records) == len(cluster_records)
    for a, b in zip(tenancy_records, cluster_records):
        # Exact equality on every field the cluster record carries: the
        # tenancy layer must push the same events through the same code.
        assert (
            a.rid,
            a.key,
            a.shard,
            a.arrival_ns,
            a.attempts,
            a.retries,
            a.hedged,
            a.completed,
            a.failed,
            a.start_ns,
            a.finish_ns,
            a.replica,
            a.core,
        ) == (
            b.rid,
            b.key,
            b.shard,
            b.arrival_ns,
            b.attempts,
            b.retries,
            b.hedged,
            b.completed,
            b.failed,
            b.start_ns,
            b.finish_ns,
            b.replica,
            b.core,
        )
        assert not a.shed


class TestDegenerateByteIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_single_shard_fault_free(self, keys, seed, event_queue):
        topology = TopologySpec(n_shards=1, n_replicas=1, n_cores=2)
        spec = single_tenant_spec(
            rate_per_sec=RATE, n_requests=N_REQ, seed=seed, topology=topology
        )
        result = simulate_scenario(
            spec, services(1), keys,
            shard_map=ShardMap.from_keys(keys, 1),
        )
        direct = direct_run(
            keys, seed, topology, RouterPolicy(), None, None
        )
        assert_records_identical(result.cluster.records, direct.records)
        assert result.cluster.makespan_ns == direct.makespan_ns
        assert result.cluster.latencies_ns == direct.latencies_ns
        assert result.summary() == direct.summary()

    def test_sharded_replicated_topology(self, keys, event_queue):
        topology = TopologySpec(n_shards=4, n_replicas=2, n_cores=2)
        spec = single_tenant_spec(
            rate_per_sec=RATE, n_requests=N_REQ, seed=3, topology=topology
        )
        result = simulate_scenario(spec, services(4), keys)
        direct = direct_run(keys, 3, topology, RouterPolicy(), None, None)
        assert_records_identical(result.cluster.records, direct.records)
        assert result.summary() == direct.summary()
        assert result.cluster.max_queue_depth == direct.max_queue_depth
        only = result.tenants[0]
        assert only.requests == N_REQ
        assert only.completed == direct.completed
        assert only.shed == 0
        assert sorted(only.latencies_ns) == sorted(direct.latencies_ns)

    def test_with_policy_and_faults(self, keys, event_queue):
        """The identity survives retries, hedging and fault injection --
        the tenancy layer adds tenant identity, not behaviour."""
        topology = TopologySpec(n_shards=2, n_replicas=2, n_cores=2)
        span = N_REQ / RATE * 1e9
        horizon = 1.5 * span
        policy = RouterPolicy(
            hedge_after_ns=span / 100.0,
            backoff_base_ns=span / 50.0,
            backoff_cap_ns=span / 5.0,
        )
        faults = FaultConfig(
            crash_mttf_ns=span / 2.0,
            crash_mttr_ns=span / 10.0,
            slow_mttf_ns=span / 2.0,
            slow_mttr_ns=span / 8.0,
            slow_factor=6.0,
            seed=5,
        )
        spec = single_tenant_spec(
            rate_per_sec=RATE,
            n_requests=N_REQ,
            seed=5,
            topology=topology,
            policy=PolicySpec.from_router_policy(policy),
            faults=FaultSpec.from_fault_config(faults),
            fault_horizon_ns=horizon,
        )
        result = simulate_scenario(spec, services(2), keys)
        direct = direct_run(keys, 5, topology, policy, faults, horizon)
        assert direct.crashes > 0 or direct.slow_events > 0
        assert_records_identical(result.cluster.records, direct.records)
        assert result.cluster.total_retries == direct.total_retries
        assert result.cluster.total_hedges == direct.total_hedges
        assert result.cluster.fault_events == direct.fault_events
        assert result.summary() == direct.summary()

    def test_identity_breaks_with_admission(self, keys, event_queue):
        """Sanity: admission control is the one thing allowed to
        diverge -- a tight gold threshold changes the run."""
        topology = TopologySpec(n_shards=1, n_replicas=1, n_cores=1)
        spec = single_tenant_spec(
            rate_per_sec=20.0 * RATE,
            n_requests=N_REQ,
            seed=0,
            topology=topology,
        ).with_admission(AdmissionSpec(enabled=True, gold_depth=1))
        result = simulate_scenario(
            spec, services(1), keys,
            shard_map=ShardMap.from_keys(keys, 1),
        )
        assert result.total_shed > 0


class TestCrossEngineByteIdentity:
    """The sealed queue must agree with the plain-heap oracle through the
    tenancy layer, admission control included: shedding decisions read
    queue state, so identical shed sets prove identical event
    interleaving."""

    def run_both(self, spec, keys, n_shards, monkeypatch):
        return run_on_both_queues(
            monkeypatch,
            lambda: simulate_scenario(
                spec, services(n_shards), keys,
                shard_map=ShardMap.from_keys(keys, n_shards),
            ),
        )

    def test_multi_tenant_run(self, keys, monkeypatch):
        topology = TopologySpec(n_shards=2, n_replicas=2, n_cores=2)
        spec = single_tenant_spec(
            rate_per_sec=RATE, n_requests=N_REQ, seed=4, topology=topology
        )
        a, b = self.run_both(spec, keys, 2, monkeypatch)
        assert_records_identical(a.cluster.records, b.cluster.records)
        assert a.trace == b.trace
        assert a.summary() == b.summary()

    def test_admission_control_sheds_identically(self, keys, monkeypatch):
        topology = TopologySpec(n_shards=1, n_replicas=1, n_cores=1)
        spec = single_tenant_spec(
            rate_per_sec=20.0 * RATE,
            n_requests=N_REQ,
            seed=0,
            topology=topology,
        ).with_admission(AdmissionSpec(enabled=True, gold_depth=1))
        a, b = self.run_both(spec, keys, 1, monkeypatch)
        assert a.total_shed > 0
        assert a.total_shed == b.total_shed
        assert [r.rid for r in a.cluster.records if r.shed] == [
            r.rid for r in b.cluster.records if r.shed
        ]
        assert [
            (r.rid, r.arrival_ns, r.start_ns, r.finish_ns, r.shed)
            for r in a.cluster.records
        ] == [
            (r.rid, r.arrival_ns, r.start_ns, r.finish_ns, r.shed)
            for r in b.cluster.records
        ]
        assert a.summary() == b.summary()


class TestTraceReplayIdentity:
    def test_serialized_trace_replays_byte_identically(
        self, keys, tmp_path, event_queue
    ):
        spec = single_tenant_spec(
            rate_per_sec=RATE,
            n_requests=N_REQ,
            seed=9,
            topology=TopologySpec(n_shards=4, n_replicas=2, n_cores=2),
        )
        shard_map = ShardMap.from_keys(keys, 4)
        first = simulate_scenario(
            spec, services(4), keys, shard_map=shard_map
        )
        path = tmp_path / "run.trace.json"
        first.trace.save(path)
        reloaded = TenantTrace.load(path)
        assert reloaded == first.trace
        assert reloaded.content_key() == first.trace.content_key()
        replayed = replay_trace(
            spec, reloaded, services(4), shard_map=shard_map
        )
        assert_records_identical(
            replayed.cluster.records, first.cluster.records
        )
        assert replayed.summary() == first.summary()

    def test_spec_json_round_trip_reruns_identically(self, keys):
        from repro.serve.scenario import ScenarioSpec

        spec = single_tenant_spec(
            rate_per_sec=RATE, n_requests=N_REQ, seed=2,
            topology=TopologySpec(n_shards=2, n_replicas=2, n_cores=2),
        )
        again = ScenarioSpec.from_json(spec.to_json())
        shard_map = ShardMap.from_keys(keys, 2)
        a = simulate_scenario(spec, services(2), keys, shard_map=shard_map)
        b = simulate_scenario(again, services(2), keys, shard_map=shard_map)
        assert a.trace == b.trace
        assert_records_identical(a.cluster.records, b.cluster.records)
        assert a.summary() == b.summary()


@pytest.fixture(autouse=True)
def _isolate_measurement_caches():
    common.set_active_cache(None)
    common.clear_caches()
    yield
    common.set_active_cache(None)
    common.clear_caches()


@pytest.fixture(scope="module")
def settings():
    return BenchSettings(
        n_keys=6_000, n_lookups=40, warmup=20, max_configs=2
    )


def fresh_report(settings, jobs: int, cache=None):
    """Recompute the per-shard grid at ``jobs`` workers, then format."""
    common.clear_caches()
    cells = ext_tenants.cells(settings)
    assert cells
    _, stats = run_cells(cells, jobs=jobs, cache=cache)
    return ext_tenants.run(settings), stats


@pytest.mark.slow
class TestReportDeterminism:
    def test_serial_equals_jobs2(self, settings):
        serial, serial_stats = fresh_report(settings, jobs=1)
        parallel, parallel_stats = fresh_report(settings, jobs=2)
        assert serial_stats.executed > 0
        assert parallel_stats.executed == serial_stats.executed
        assert serial == parallel

    def test_cache_replay_is_identical(self, settings, tmp_path):
        cache = MeasurementCache(str(tmp_path / "cache"))
        first, first_stats = fresh_report(settings, jobs=2, cache=cache)
        assert first_stats.executed > 0
        second, second_stats = fresh_report(settings, jobs=1, cache=cache)
        assert second_stats.executed == 0
        assert second_stats.cache_hits == second_stats.unique_cells
        assert first == second

    def test_report_structure(self, settings):
        report, _ = fresh_report(settings, jobs=1)
        for ds_name in ("amzn", "osm"):
            assert f"mixed-tenant day, {ds_name}" in report
            assert f"flash crowd vs admission control, {ds_name}" in report
            assert f"record-replay reproducibility, {ds_name}" in report
        # The headline claim: with admission on, gold meets its SLO and
        # bronze absorbs the rejections; off, gold's p99 is destroyed.
        assert "NO" in report
        assert "yes" in report
        assert "replay identical" in report
