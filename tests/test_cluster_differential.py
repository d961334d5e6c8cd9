"""Differential tests: cluster vs single-node simulator, and the
``ext_cluster`` report across execution strategies.

The tentpole invariant: a 1-shard, 1-replica, fault-free cluster under
the default router policy IS the single-node simulator -- same events,
same sequence numbers, same float arithmetic -- so every per-request
number must be *byte-identical* (exact ``==`` on floats, no approx).

The report half mirrors ``test_serving_determinism.py``: the
``ext_cluster`` report must be identical whether its per-shard
measurement grid was computed serially, on a 2-process pool, or replayed
from the persistent cache.

Every byte-identity test runs on both event queues (the ``event_queue``
fixture): the simulators' sealed queue and the plain-heap oracle.
``TestCrossEngineByteIdentity`` compares the two queues' runs against
*each other* on degenerate, faulted, and hedged clusters.
"""

from __future__ import annotations

import pytest

from repro.bench.cache import MeasurementCache
from repro.bench.config import BenchSettings
from repro.bench.experiments import common, ext_cluster
from repro.bench.parallel import run_cells
from repro.memsim.counters import PerfCountersF
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import ServiceModel, simulate_open_loop
from repro.serve.arrivals import poisson_arrivals
from repro.serve.faults import FaultConfig
from repro.serve.metrics import summarize, summarize_result
from repro.serve.router import RouterPolicy, ShardMap
from serve_reference import run_on_both_queues


def counters(instructions=50, llc_misses=3.0, branch_misses=1.0):
    return PerfCountersF(
        instructions=instructions,
        branch_misses=branch_misses,
        llc_misses=llc_misses,
        l1_hits=4.0,
    )


def degenerate_pair(arrivals, n_cores):
    """(single-node result, degenerate-cluster result) on fresh models."""
    single = simulate_open_loop(
        ServiceModel(counters()), arrivals, n_cores=n_cores
    )
    cluster = Cluster(
        shard_map=ShardMap([0]),
        services=[ServiceModel(counters())],
        n_replicas=1,
        n_cores=n_cores,
        policy=RouterPolicy(),
        faults=None,
    )
    clustered = simulate_cluster(cluster, arrivals, [50] * len(arrivals))
    return single, clustered


class TestDegenerateByteIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("n_cores", [1, 3])
    def test_request_stream_identical(self, seed, n_cores, event_queue):
        arrivals = poisson_arrivals(6e6, 400, seed=seed)
        single, clustered = degenerate_pair(arrivals, n_cores)
        assert len(clustered.records) == len(single.requests)
        for s, c in zip(single.requests, clustered.records):
            # Exact equality on every float: the cluster must push the
            # same events through the same loop code.
            assert (s.rid, s.arrival_ns, s.start_ns, s.finish_ns, s.core) == (
                c.rid,
                c.arrival_ns,
                c.start_ns,
                c.finish_ns,
                c.core,
            )
            assert c.completed and not c.failed
            assert c.attempts == 1 and c.retries == 0 and not c.hedged

    def test_aggregates_identical(self, event_queue):
        arrivals = poisson_arrivals(6e6, 500, seed=3)
        single, clustered = degenerate_pair(arrivals, 2)
        assert clustered.makespan_ns == single.makespan_ns
        assert clustered.max_queue_depth == single.max_queue_depth
        assert clustered.latencies_ns == single.latencies_ns
        assert clustered.throughput_per_sec == single.throughput_per_sec

    def test_latency_summary_identical(self, event_queue):
        arrivals = poisson_arrivals(6e6, 500, seed=5)
        single, clustered = degenerate_pair(arrivals, 2)
        assert clustered.summary() == summarize_result(single)
        assert clustered.summary() == summarize(
            single.latencies_ns, single.throughput_per_sec
        )

    def test_identity_breaks_with_faults(self, event_queue):
        """Sanity: the identity is a property of the degenerate config,
        not an artifact of the comparison."""
        arrivals = poisson_arrivals(6e6, 400, seed=0)
        single = simulate_open_loop(
            ServiceModel(counters()), arrivals, n_cores=2
        )
        cluster = Cluster(
            shard_map=ShardMap([0]),
            services=[ServiceModel(counters())],
            n_replicas=1,
            n_cores=2,
            faults=FaultConfig(crash_mttf_ns=2e4, crash_mttr_ns=2e4, seed=0),
        )
        clustered = simulate_cluster(cluster, arrivals, [50] * 400)
        assert clustered.latencies_ns != single.latencies_ns


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


class TestCrossEngineByteIdentity:
    """The cluster on its sealed queue must agree with itself on the
    plain-heap oracle, not just with the single-node simulator --
    including faulted, hedged and retried runs, whose late pushes
    interleave with the up-front arrivals and fault timeline."""

    @pytest.mark.parametrize("seed", [0, 11])
    def test_degenerate_cluster(self, seed, monkeypatch):
        arrivals = poisson_arrivals(6e6, 400, seed=seed)

        def build():
            cluster = Cluster(
                shard_map=ShardMap([0]),
                services=[ServiceModel(counters())],
                n_replicas=1,
                n_cores=2,
            )
            return simulate_cluster(cluster, arrivals, [50] * 400)

        a, b = run_on_both_queues(monkeypatch, build)
        assert [record_tuple(r) for r in a.records] == [
            record_tuple(r) for r in b.records
        ]
        assert a.summary() == b.summary()

    def test_faulted_hedged_cluster(self, monkeypatch):
        arrivals = poisson_arrivals(4e6, 500, seed=2)
        keys = [(37 * i) % 100 for i in range(500)]
        span = 500 / 4e6 * 1e9

        def build():
            cluster = Cluster(
                shard_map=ShardMap([0, 50]),
                services=[
                    ServiceModel(counters()),
                    ServiceModel(counters(80)),
                ],
                n_replicas=2,
                n_cores=2,
                policy=RouterPolicy(
                    hedge_after_ns=span / 100.0,
                    backoff_base_ns=span / 50.0,
                    backoff_cap_ns=span / 5.0,
                ),
                faults=FaultConfig(
                    crash_mttf_ns=span / 2.0,
                    crash_mttr_ns=span / 10.0,
                    slow_mttf_ns=span / 2.0,
                    slow_mttr_ns=span / 8.0,
                    slow_factor=6.0,
                    seed=5,
                ),
            )
            return simulate_cluster(
                cluster, arrivals, keys, fault_horizon_ns=1.5 * span
            )

        a, b = run_on_both_queues(monkeypatch, build)
        assert a.crashes > 0 or a.slow_events > 0
        assert [record_tuple(r) for r in a.records] == [
            record_tuple(r) for r in b.records
        ]
        assert (a.crashes, a.slow_events, a.total_retries, a.total_hedges) == (
            b.crashes,
            b.slow_events,
            b.total_retries,
            b.total_hedges,
        )
        assert a.fault_events == b.fault_events
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
    cells = ext_cluster.cells(settings)
    assert cells
    _, stats = run_cells(cells, jobs=jobs, cache=cache)
    return ext_cluster.run(settings), stats


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
            assert f"tail latency under faults, {ds_name}" in report
            assert f"request hedging under rare gray failure, {ds_name}" in (
                report
            )
            assert f"cluster SLO selection, {ds_name}" in report
        for index_name in ("RMI", "PGM", "BTree"):
            assert index_name in report
        assert "-> chosen:" in report
        assert "avail" in report
