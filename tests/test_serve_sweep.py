"""Tests for the parallel/cached simulation sweep layer.

Pins the layer's contract from ``docs/serving.md``:

* routing a selector sweep through tasks (any job count) is
  byte-identical to the inline path;
* a warm :class:`SimResultCache` replays a sweep with 100% hits and
  zero executions, and the replayed selection is byte-identical;
* cache keys are stable content hashes that embed the schema version
  and never name the event queue -- a record written on the plain-heap
  oracle replays fully on the sealed queue (and vice versa) and equals
  a fresh run there;
* run records round-trip losslessly (``to_record``/``from_record``)
  and mirror the live result objects' derived values exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.cache import CACHE_SCHEMA_VERSION, SimResultCache, sim_key
from repro.memsim.counters import PerfCountersF
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.contention import MachineModel
from repro.serve.core import ServiceModel
from repro.serve.arrivals import poisson_arrivals
from repro.serve.metrics import LatencySummary
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import TopologySpec, single_tenant_spec
from repro.serve.selector import select_cluster_under_slo, select_under_slo
from repro.serve.sweep import (
    ClusterRunStats,
    TenancyRunStats,
    clear_sim_results,
    cluster_task,
    open_loop_summary,
    open_loop_task,
    run_sim_tasks,
    SimRunnerStats,
)
from serve_reference import run_on_both_queues, use_event_queue


def counters(instructions=300, llc_misses=2.0):
    return PerfCountersF(
        instructions=instructions,
        llc_misses=llc_misses,
        l1_hits=20.0,
        branch_misses=3.0,
    )


class FakeMeasurement:
    """Duck-typed stand-in for repro.bench.harness.Measurement."""

    def __init__(self, name="X", size_bytes=1 << 20, **counter_kwargs):
        self.index = name
        self.config = {}
        self.size_bytes = size_bytes
        self.counters = counters(**counter_kwargs)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_sim_results()
    yield
    clear_sim_results()


def fleet():
    return [
        FakeMeasurement("Slow", size_bytes=1_000, llc_misses=9.0),
        FakeMeasurement("Fast", size_bytes=1_000_000, llc_misses=0.5),
        FakeMeasurement("Mid", size_bytes=10_000, llc_misses=2.0),
    ]


SELECT_KW = dict(
    offered_per_sec=2e6,
    p99_slo_ns=50_000.0,
    n_requests=300,
    seed=3,
    n_cores=2,
)


def selection_tuple(sel):
    return [
        (c.index, c.size_bytes, c.saturation_per_sec, c.summary)
        for c in sel.candidates
    ], (None if sel.chosen is None else sel.chosen.index)


class TestSelectorTaskPath:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_byte_identical_to_inline(self, jobs, tmp_path):
        inline = select_under_slo(fleet(), **SELECT_KW)
        clear_sim_results()
        cache = SimResultCache(str(tmp_path / "serving"))
        routed = select_under_slo(
            fleet(), jobs=jobs, sim_cache=cache, **SELECT_KW
        )
        assert selection_tuple(inline) == selection_tuple(routed)
        assert cache.misses == len(fleet()) and cache.hits == 0

    def test_warm_cache_replays_with_full_hits(self, tmp_path):
        cache = SimResultCache(str(tmp_path / "serving"))
        first = select_under_slo(
            fleet(), jobs=2, sim_cache=cache, **SELECT_KW
        )
        clear_sim_results()
        cache.reset_stats()
        second = select_under_slo(
            fleet(), jobs=1, sim_cache=cache, **SELECT_KW
        )
        assert selection_tuple(first) == selection_tuple(second)
        assert cache.hits == len(fleet()) and cache.misses == 0

    def test_cluster_selector_byte_identical(self, tmp_path):
        keys = list(range(0, 10_000, 5))
        families = {
            "Small": [FakeMeasurement("Small", 2_000) for _ in range(2)],
            "Big": [
                FakeMeasurement("Big", 400_000, llc_misses=4.0)
                for _ in range(2)
            ],
        }
        shard_map = ShardMap.from_keys(np.asarray(keys, dtype=np.uint64), 2)
        kwargs = dict(
            offered_per_sec=4e6,
            p99_slo_ns=100_000.0,
            n_requests=300,
            seed=0,
            n_replicas=2,
            n_cores=2,
        )
        inline = select_cluster_under_slo(families, shard_map, keys, **kwargs)
        clear_sim_results()
        cache = SimResultCache(str(tmp_path / "serving"))
        routed = select_cluster_under_slo(
            families, shard_map, keys, jobs=2, sim_cache=cache, **kwargs
        )
        assert [
            (c.index, c.per_shard_size_bytes, c.summary, c.availability,
             c.total_retries, c.total_hedges, c.max_queue_depth)
            for c in inline.candidates
        ] == [
            (c.index, c.per_shard_size_bytes, c.summary, c.availability,
             c.total_retries, c.total_hedges, c.max_queue_depth)
            for c in routed.candidates
        ]
        assert (inline.chosen is None) == (routed.chosen is None)


class TestEngineInvariantCacheKeys:
    """Cache keys name the simulation, never the event queue that ran it
    (``event``: the plain-heap oracle, ``fast``: the sealed queue)."""

    def task(self):
        return open_loop_task(
            FakeMeasurement(), 2e6, 200, 7, 1, MachineModel()
        )

    def test_key_fields_never_mention_the_engine(self):
        fields = self.task().key_fields()
        flat = repr(fields).lower()
        assert "engine" not in flat
        assert "kind" in fields

    def test_sim_key_stable(self):
        key = sim_key(self.task())
        assert key == sim_key(self.task())
        assert len(key) == 40
        assert sim_key(self.task(), schema_version=CACHE_SCHEMA_VERSION + 1) != key

    @pytest.mark.parametrize(
        "warm_queue,replay_queue", [("event", "fast"), ("fast", "event")]
    )
    def test_cross_engine_cache_replay(
        self, warm_queue, replay_queue, tmp_path, monkeypatch
    ):
        """A record warmed on one event queue replays with full hits
        and equals a fresh run on the other."""
        cache = SimResultCache(str(tmp_path / "serving"))
        warm_built = use_event_queue(monkeypatch, warm_queue)
        warm = run_sim_tasks([self.task()], cache=cache)[0]
        clear_sim_results()
        cache.reset_stats()
        replay_built = use_event_queue(monkeypatch, replay_queue)
        replayed = run_sim_tasks([self.task()], cache=cache)[0]
        assert cache.hits == 1 and cache.misses == 0
        assert replayed == warm
        assert open_loop_summary(replayed) == open_loop_summary(warm)
        clear_sim_results()
        fresh = run_sim_tasks([self.task()])[0]
        assert fresh == replayed
        # One of the two simulations really ran on the oracle queue.
        assert warm_built or replay_built

    def test_engines_write_identical_records(self, monkeypatch):
        def run():
            clear_sim_results()
            return run_sim_tasks([self.task()])[0]

        a, b = run_on_both_queues(monkeypatch, run)
        assert a == b
        assert open_loop_summary(a) == open_loop_summary(b)


class TestRunnerSemantics:
    def test_duplicates_execute_once(self):
        stats = SimRunnerStats()
        t = open_loop_task(FakeMeasurement(), 1e6, 100, 0, 1)
        records = run_sim_tasks([t, t, t], stats=stats)
        assert stats.total_tasks == 3
        assert stats.unique_tasks == 1
        assert stats.executed == 1
        assert records[0] == records[1] == records[2]

    def test_memo_hit_on_second_call(self):
        stats = SimRunnerStats()
        t = open_loop_task(FakeMeasurement(), 1e6, 100, 0, 1)
        run_sim_tasks([t], stats=stats)
        run_sim_tasks([t], stats=stats)
        assert stats.executed == 1 and stats.memo_hits == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sim_tasks([], jobs=0)

    def test_pool_order_matches_inline(self):
        tasks = [
            open_loop_task(FakeMeasurement(llc_misses=float(k)), 1e6, 120, k, 1)
            for k in range(5)
        ]
        inline = run_sim_tasks(tasks)
        clear_sim_results()
        pooled = run_sim_tasks(tasks, jobs=4)
        assert inline == pooled


class TestRunRecords:
    def cluster_result(self):
        arrivals = poisson_arrivals(3e6, 300, seed=1)
        keys = [(13 * i) % 500 for i in range(300)]
        span = 300 / 3e6 * 1e9
        cluster = Cluster(
            shard_map=ShardMap([0, 250]),
            services=[ServiceModel(counters()), ServiceModel(counters(80))],
            n_replicas=2,
            n_cores=2,
            policy=RouterPolicy(hedge_after_ns=span / 50.0),
            faults=None,
        )
        return simulate_cluster(cluster, arrivals, keys)

    def test_cluster_stats_round_trip(self):
        stats = ClusterRunStats.from_result(self.cluster_result())
        again = ClusterRunStats.from_record(stats.to_record())
        assert again == stats
        assert again.availability == stats.availability
        assert again.max_queue_depth == stats.max_queue_depth

    def test_cluster_stats_mirror_result(self):
        result = self.cluster_result()
        stats = ClusterRunStats.from_result(result)
        assert stats.availability == result.availability
        assert stats.max_queue_depth == result.max_queue_depth
        assert stats.summary == result.summary()
        assert stats.total_retries == result.total_retries
        assert stats.total_hedges == result.total_hedges

    def test_tenancy_stats_round_trip(self):
        from repro.serve.tenancy import simulate_scenario

        raw = np.unique(
            np.random.default_rng(0).integers(
                0, 2**40, size=4000, dtype=np.uint64
            )
        )
        spec = single_tenant_spec(
            rate_per_sec=3e5,
            n_requests=200,
            seed=2,
            topology=TopologySpec(n_shards=2, n_replicas=2, n_cores=2),
        )
        result = simulate_scenario(
            spec,
            [ServiceModel(counters()) for _ in range(2)],
            raw,
            shard_map=ShardMap.from_keys(raw, 2),
        )
        stats = TenancyRunStats.from_result(result)
        again = TenancyRunStats.from_record(stats.to_record())
        assert again == stats
        assert again.summary == result.summary()
        only = again.by_name(spec.tenants[0].name)
        live = result.tenants[0]
        assert only.requests == live.requests
        assert only.completed == live.completed
        assert only.goodput == live.goodput
        assert only.summary == live.summary()
        assert only.slo_met() == live.slo_met()
        with pytest.raises(KeyError):
            again.by_name("nope")

    def test_latency_summary_dict_round_trip(self):
        s = LatencySummary(
            n=101,
            mean_ns=123.456789012345,
            p50_ns=100.1,
            p95_ns=0.1 + 0.2,  # a float with no short decimal form
            p99_ns=333.0,
            p999_ns=444.0,
            max_ns=1e308,
            throughput_per_sec=987654.321,
        )
        assert LatencySummary.from_dict(s.to_dict()) == s
        import json

        assert (
            LatencySummary.from_dict(json.loads(json.dumps(s.to_dict()))) == s
        )


class TestShapeAndFaultBranches:
    def test_bursty_task_matches_direct_simulation(self):
        from repro.serve.arrivals import bursty_arrivals
        from repro.serve.core import simulate_open_loop
        from repro.serve.metrics import summarize_result

        m = FakeMeasurement()
        task = open_loop_task(m, 1e6, 150, 3, 1, shape="bursty")
        record = run_sim_tasks([task])[0]
        direct = simulate_open_loop(
            ServiceModel.from_measurement(m),
            bursty_arrivals(1e6, 150, 3),
            n_cores=1,
        )
        assert open_loop_summary(record)[0] == summarize_result(direct)

    def test_unknown_shape_rejected(self):
        import dataclasses as dc

        bad = dc.replace(
            open_loop_task(FakeMeasurement(), 1e6, 50, 0, 1), shape="weird"
        )
        with pytest.raises(ValueError, match="unknown arrival shape"):
            bad.run()

    def test_faulted_cluster_task_round_trips_fault_config(self):
        from repro.serve.faults import FaultConfig

        per_shard = [FakeMeasurement()]
        keys = np.arange(0, 1000, 7, dtype=np.uint64)
        shard_map = ShardMap.from_keys(keys, 1)
        n_req, rate = 200, 2e6
        span = n_req / rate * 1e9
        faults = FaultConfig(
            crash_mttf_ns=span / 2.0, crash_mttr_ns=span / 10.0, seed=1
        )
        lookup_keys = request_keys(keys, n_req, 0)
        task = cluster_task(
            per_shard, shard_map, lookup_keys, rate, n_req, 0,
            2, 2, RouterPolicy(), faults, 1.5 * span, MachineModel(),
        )
        record = run_sim_tasks([task])[0]
        stats = ClusterRunStats.from_record(record)
        cluster = Cluster(
            shard_map=shard_map,
            services=[ServiceModel.from_measurement(per_shard[0])],
            n_replicas=2,
            n_cores=2,
            policy=RouterPolicy(),
            faults=faults,
        )
        direct = simulate_cluster(
            cluster,
            poisson_arrivals(rate, n_req, 0),
            lookup_keys,
            fault_horizon_ns=1.5 * span,
        )
        assert stats == ClusterRunStats.from_result(direct)
        assert stats.crashes == direct.crashes


class TestScenarioTaskParity:
    def test_task_record_equals_direct_run(self):
        from repro.datasets import make_dataset
        from repro.serve.sweep import scenario_task
        from repro.serve.tenancy import simulate_scenario

        spec = single_tenant_spec(
            rate_per_sec=4e5,
            n_requests=150,
            seed=1,
            topology=TopologySpec(n_shards=2, n_replicas=1, n_cores=2),
        )
        per_shard = [FakeMeasurement(), FakeMeasurement(llc_misses=3.0)]
        task = scenario_task(spec, "amzn", 4_000, 1, per_shard)
        record = run_sim_tasks([task])[0]
        ds = make_dataset("amzn", 4_000, seed=1)
        direct = simulate_scenario(
            spec,
            [ServiceModel.from_measurement(m) for m in per_shard],
            ds.keys,
            shard_map=ShardMap.from_keys(ds.keys, 2),
        )
        assert TenancyRunStats.from_record(record) == (
            TenancyRunStats.from_result(direct)
        )


class TestClusterTaskParity:
    def test_task_record_equals_direct_run(self):
        per_shard = [FakeMeasurement(), FakeMeasurement(llc_misses=4.0)]
        machine = MachineModel()
        keys = np.arange(0, 5000, 3, dtype=np.uint64)
        shard_map = ShardMap.from_keys(keys, 2)
        n_req, seed, rate = 250, 4, 2e6
        lookup_keys = request_keys(keys, n_req, seed)
        task = cluster_task(
            per_shard, shard_map, lookup_keys, rate, n_req, seed,
            2, 2, RouterPolicy(), None, None, machine,
        )
        record = run_sim_tasks([task])[0]
        cluster = Cluster(
            shard_map=shard_map,
            services=[
                ServiceModel.from_measurement(m, machine=machine)
                for m in per_shard
            ],
            n_replicas=2,
            n_cores=2,
            policy=RouterPolicy(),
            faults=None,
        )
        direct = simulate_cluster(
            cluster, poisson_arrivals(rate, n_req, seed), lookup_keys
        )
        assert ClusterRunStats.from_record(record) == (
            ClusterRunStats.from_result(direct)
        )


class TestObsCacheCounters:
    """run_sim_tasks publishes its resolution split as obs metrics
    (``serve.sweep.memo.hits`` and ``serve.sweep.cache.{hits,misses,
    executed}``), so metrics.json distinguishes warm from cold sweeps."""

    NAMES = (
        "serve.sweep.memo.hits",
        "serve.sweep.cache.hits",
        "serve.sweep.cache.misses",
        "serve.sweep.cache.executed",
    )

    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        from repro.obs.metrics import get_registry

        get_registry().reset()
        yield
        get_registry().reset()

    def counters_now(self):
        from repro.obs.metrics import get_registry

        snap = get_registry().snapshot()["counters"]
        return tuple(snap.get(name, 0) for name in self.NAMES)

    def tasks(self):
        return [
            open_loop_task(FakeMeasurement(), 1e6, 100, seed, 1)
            for seed in range(3)
        ]

    def test_cold_run_counts_misses_and_executions(self, tmp_path):
        cache = SimResultCache(str(tmp_path / "serving"))
        run_sim_tasks(self.tasks(), cache=cache)
        assert self.counters_now() == (0, 0, 3, 3)

    def test_second_call_counts_memo_hits(self, tmp_path):
        cache = SimResultCache(str(tmp_path / "serving"))
        run_sim_tasks(self.tasks(), cache=cache)
        run_sim_tasks(self.tasks(), cache=cache)
        assert self.counters_now() == (3, 0, 3, 3)

    def test_warm_cache_counts_cache_hits(self, tmp_path):
        cache = SimResultCache(str(tmp_path / "serving"))
        run_sim_tasks(self.tasks(), cache=cache)
        clear_sim_results()  # drop the memo, keep the persistent cache
        run_sim_tasks(self.tasks(), cache=cache)
        assert self.counters_now() == (0, 3, 3, 3)

    def test_no_cache_still_counts_executions(self):
        run_sim_tasks(self.tasks())
        # No persistent cache: no hit/miss accounting, only executions.
        assert self.counters_now() == (0, 0, 0, 3)
