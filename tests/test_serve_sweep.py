"""Tests for the parallel/cached simulation sweep layer.

Pins the layer's contract from ``docs/serving.md``:

* a selector sweep is byte-identical at any job count, with or
  without a cache;
* a warm :class:`MeasurementCache` replays a sweep with 100% hits and
  zero executions, and the replayed selection is byte-identical;
* the sweep runner is the measurement runner's ladder: it dedupes,
  memoizes, honours ``REPRO_JOBS`` and caches each record as it
  arrives;
* cache keys are stable content hashes that embed the schema version
  and never name the event queue -- a record written on the plain-heap
  oracle replays fully on the sealed queue (and vice versa) and equals
  a fresh run there;
* run records round-trip losslessly (``to_dict``/``from_dict``) and
  mirror the live result objects' derived values exactly;
* every task kind's cache key is pinned, with and without telemetry
  and reconfiguration.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.cache import CACHE_SCHEMA_VERSION, MeasurementCache, cache_key
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
    OpenLoopRunStats,
    TenancyRunStats,
    clear_sim_results,
    cluster_task,
    open_loop_task,
    run_sim_tasks,
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
    """The default call (no ``jobs``, no cache, ``REPRO_JOBS`` unset) runs
    the tasks in this process; any job count and a cache give the same
    selection."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_byte_identical_to_inline(self, jobs, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        inline = select_under_slo(fleet(), **SELECT_KW)
        clear_sim_results()
        cache = MeasurementCache(str(tmp_path))
        routed = select_under_slo(
            fleet(), jobs=jobs, sim_cache=cache, **SELECT_KW
        )
        assert selection_tuple(inline) == selection_tuple(routed)
        assert cache.misses == len(fleet()) and cache.hits == 0

    def test_warm_cache_replays_with_full_hits(self, tmp_path):
        cache = MeasurementCache(str(tmp_path))
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

    def test_cluster_selector_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
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
        cache = MeasurementCache(str(tmp_path))
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

    def test_task_cache_key_stable(self):
        key = cache_key(self.task())
        assert key == cache_key(self.task())
        assert len(key) == 40
        assert (
            cache_key(self.task(), schema_version=CACHE_SCHEMA_VERSION + 1)
            != key
        )

    @pytest.mark.parametrize(
        "warm_queue,replay_queue", [("event", "fast"), ("fast", "event")]
    )
    def test_cross_engine_cache_replay(
        self, warm_queue, replay_queue, tmp_path, monkeypatch
    ):
        """A record warmed on one event queue replays with full hits
        and equals a fresh run on the other."""
        cache = MeasurementCache(str(tmp_path))
        warm_built = use_event_queue(monkeypatch, warm_queue)
        warm = run_sim_tasks([self.task()], cache=cache)[0]
        clear_sim_results()
        cache.reset_stats()
        replay_built = use_event_queue(monkeypatch, replay_queue)
        replayed = run_sim_tasks([self.task()], cache=cache)[0]
        assert cache.hits == 1 and cache.misses == 0
        assert replayed == warm
        assert OpenLoopRunStats.from_dict(replayed) == (
            OpenLoopRunStats.from_dict(warm)
        )
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
        assert OpenLoopRunStats.from_dict(a) == OpenLoopRunStats.from_dict(b)


def _pinned_tasks():
    """One task per kind and option, built as cached runs build them."""
    from types import SimpleNamespace

    from repro.serve.faults import FaultConfig
    from repro.serve.reconfig import AutoscaleSpec, ReconfigSpec, SplitSpec
    from repro.serve.sweep import scenario_task
    from repro.serve.telemetry import TelemetryConfig

    shards = [
        SimpleNamespace(
            counters=PerfCountersF(instructions=101.5, llc_misses=7.25)
        ),
        SimpleNamespace(
            counters=PerfCountersF(
                instructions=80.0, llc_misses=2.5, l1_hits=20.0
            )
        ),
    ]
    tel = TelemetryConfig(window_ns=50_000.0, slo_p99_ns=20_000.0)
    keys = np.arange(0, 5000, 3, dtype=np.uint64)
    shard_map = ShardMap.from_keys(keys, 2)
    active = ReconfigSpec(
        splits=(
            SplitSpec(
                at_ns=3e4, shard=0, at_key=shard_map.lower_bounds[1] // 2
            ),
        ),
        autoscale=AutoscaleSpec(interval_ns=2e4, up_depth=3),
    )

    def cluster(**kw):
        return cluster_task(
            shards, shard_map, request_keys(keys, 200, 4), 2e6, 200, 4, 2,
            2, RouterPolicy(hedge_after_ns=2e4),
            FaultConfig(crash_mttf_ns=5e4, crash_mttr_ns=1e4, seed=3),
            1.5e5, MachineModel(), **kw,
        )

    spec = single_tenant_spec(
        rate_per_sec=4e5,
        n_requests=150,
        seed=1,
        topology=TopologySpec(n_shards=2, n_replicas=1, n_cores=2),
    )
    return {
        "open_loop": open_loop_task(shards[0], 1e6, 120, 0, 2),
        "open_loop+telemetry": open_loop_task(
            shards[0], 1e6, 120, 0, 2, telemetry=tel
        ),
        "cluster": cluster(),
        "cluster+telemetry": cluster(telemetry=tel),
        "cluster+noop_reconfig": cluster(reconfig=ReconfigSpec()),
        "cluster+reconfig": cluster(reconfig=active),
        "cluster+reconfig+telemetry": cluster(reconfig=active, telemetry=tel),
        "scenario": scenario_task(spec, "amzn", 4_000, 1, shards),
        "scenario+telemetry": scenario_task(
            spec, "amzn", 4_000, 1, shards, telemetry=tel
        ),
    }


#: Cache keys written before the task codec existed; cached runs replay
#: only while every one holds.
PINNED_TASK_KEYS = {
    "open_loop": "6f17982ae6ffa9d088630d846618dc9c0b7217eb",
    "open_loop+telemetry": "bce95d0d54ff60242a9a95e93349ba06bcd3fc85",
    "cluster": "62ec31e6da91bf7605f05ca9cf8fe9342f70f29e",
    "cluster+telemetry": "f46beb4a2d0400799954b031c5456acf7a647576",
    # A trigger-free plan is normalized away: the plain cluster key.
    "cluster+noop_reconfig": "62ec31e6da91bf7605f05ca9cf8fe9342f70f29e",
    "cluster+reconfig": "a13cc553546b7e23d05404cbcbf642828e24c4aa",
    "cluster+reconfig+telemetry": "9d50b8eb0626c8d0cd3545b0028584ea889f3363",
    "scenario": "e9ad099efee5ea9df25a984cff17320ab416bc9b",
    "scenario+telemetry": "0c1b81757af4074a53d80e65f174342f0fd20893",
}


@pytest.mark.parametrize("name", sorted(PINNED_TASK_KEYS))
def test_task_cache_key_is_pinned(name):
    assert cache_key(_pinned_tasks()[name]) == PINNED_TASK_KEYS[name]


SWEEP_COUNTERS = (
    "serve.sweep.memo.hits",
    "serve.sweep.cache.hits",
    "serve.sweep.cache.misses",
    "serve.sweep.cache.executed",
)


def sweep_counters():
    """The :data:`SWEEP_COUNTERS` values published so far."""
    from repro.obs.metrics import get_registry

    snap = get_registry().snapshot()["counters"]
    return tuple(snap.get(name, 0) for name in SWEEP_COUNTERS)


@pytest.fixture
def fresh_registry():
    from repro.obs.metrics import get_registry

    get_registry().reset()
    yield get_registry()
    get_registry().reset()


class TestRunnerSemantics:
    def test_duplicates_execute_once(self, fresh_registry):
        t = open_loop_task(FakeMeasurement(), 1e6, 100, 0, 1)
        records = run_sim_tasks([t, t, t])
        assert sweep_counters() == (0, 0, 0, 1)
        assert records[0] == records[1] == records[2]

    def test_memo_hit_on_second_call(self, fresh_registry):
        t = open_loop_task(FakeMeasurement(), 1e6, 100, 0, 1)
        run_sim_tasks([t])
        run_sim_tasks([t])
        assert sweep_counters() == (1, 0, 0, 1)

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

    def test_honours_repro_jobs(self, monkeypatch):
        """With no ``jobs`` the sweep takes its job count from
        ``REPRO_JOBS``, like the measurement runner, and its records equal
        a serial run's."""
        import repro.bench.parallel as parallel

        tasks = [
            open_loop_task(FakeMeasurement(llc_misses=float(k)), 1e6, 120, k, 1)
            for k in range(3)
        ]
        serial = run_sim_tasks(tasks, jobs=1)
        clear_sim_results()
        pools = []
        real_pool = parallel.ProcessPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", pool)
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert run_sim_tasks(tasks) == serial
        assert pools == [2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_task_keeps_earlier_results(
        self, tmp_path, monkeypatch, jobs
    ):
        """Task k raises: the records finished before it are cached, and
        a rerun executes only tasks k and later."""
        from repro.serve.sweep import OpenLoopTask

        tasks = [
            open_loop_task(FakeMeasurement(llc_misses=float(k)), 1e6, 80, k, 1)
            for k in range(5)
        ]
        k = 2
        cache = MeasurementCache(str(tmp_path))
        real_run = OpenLoopTask.run

        def run(task):
            if task == tasks[k]:
                raise RuntimeError("task failed")
            return real_run(task)

        monkeypatch.setattr(OpenLoopTask, "run", run)
        with pytest.raises(RuntimeError, match="task failed"):
            run_sim_tasks(tasks, jobs=jobs, cache=cache)
        monkeypatch.undo()
        assert len(cache) == k

        clear_sim_results()
        cache.reset_stats()
        records = run_sim_tasks(tasks, jobs=1, cache=cache)
        assert cache.hits == k
        assert cache.misses == len(tasks) - k
        clear_sim_results()
        assert records == run_sim_tasks(tasks, jobs=1)


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
        again = ClusterRunStats.from_dict(stats.to_dict())
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
        again = TenancyRunStats.from_dict(stats.to_dict())
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
        assert OpenLoopRunStats.from_dict(record).summary == (
            summarize_result(direct)
        )

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
        stats = ClusterRunStats.from_dict(record)
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
        assert TenancyRunStats.from_dict(record) == (
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
        assert ClusterRunStats.from_dict(record) == (
            ClusterRunStats.from_result(direct)
        )


class TestSimulateSpans:
    """Each task's ``cell`` span holds a ``simulate`` span naming the
    task kind and its request count."""

    def test_one_task_of_each_kind(self):
        from repro.obs import spans
        from repro.serve.sweep import scenario_task

        keys = np.arange(0, 5000, 3, dtype=np.uint64)
        shard_map = ShardMap.from_keys(keys, 2)
        per_shard = [FakeMeasurement(), FakeMeasurement(llc_misses=4.0)]
        tasks = [
            open_loop_task(FakeMeasurement(), 1e6, 120, 0, 1),
            cluster_task(
                per_shard, shard_map, request_keys(keys, 90, 4), 2e6, 90,
                4, 2, 2, RouterPolicy(), None, None,
            ),
            scenario_task(
                single_tenant_spec(
                    rate_per_sec=4e5,
                    n_requests=60,
                    seed=1,
                    topology=TopologySpec(n_shards=2, n_cores=2),
                ),
                "amzn", 4_000, 1, per_shard,
            ),
        ]
        spans.reset()
        spans.enable(True)
        try:
            run_sim_tasks(tasks, jobs=1)
            recorded = spans.drain()
        finally:
            spans.reset()
        simulate = [r for r in recorded if r["name"] == "simulate"]
        assert [r["path"] for r in simulate] == ["cell/simulate"] * 3
        assert [r["attrs"] for r in simulate] == [
            {"kind": "open_loop", "n_requests": 120},
            {"kind": "cluster", "n_requests": 90},
            {"kind": "scenario", "n_requests": 60},
        ]
        cells = {r["sid"]: r for r in recorded if r["name"] == "cell"}
        for r in simulate:
            cell = cells[r["parent"]]
            assert cell["attrs"]["label"] == r["attrs"]["kind"]


@pytest.mark.usefixtures("fresh_registry")
class TestObsCacheCounters:
    """run_sim_tasks publishes its resolution split as obs metrics
    (``serve.sweep.memo.hits`` and ``serve.sweep.cache.{hits,misses,
    executed}``), so metrics.json distinguishes warm from cold sweeps."""

    def tasks(self):
        return [
            open_loop_task(FakeMeasurement(), 1e6, 100, seed, 1)
            for seed in range(3)
        ]

    def test_cold_run_counts_misses_and_executions(self, tmp_path):
        cache = MeasurementCache(str(tmp_path))
        run_sim_tasks(self.tasks(), cache=cache)
        assert sweep_counters() == (0, 0, 3, 3)

    def test_second_call_counts_memo_hits(self, tmp_path):
        cache = MeasurementCache(str(tmp_path))
        run_sim_tasks(self.tasks(), cache=cache)
        run_sim_tasks(self.tasks(), cache=cache)
        assert sweep_counters() == (3, 0, 3, 3)

    def test_warm_cache_counts_cache_hits(self, tmp_path):
        cache = MeasurementCache(str(tmp_path))
        run_sim_tasks(self.tasks(), cache=cache)
        clear_sim_results()  # drop the memo, keep the persistent cache
        run_sim_tasks(self.tasks(), cache=cache)
        assert sweep_counters() == (0, 3, 3, 3)

    def test_no_cache_still_counts_executions(self):
        run_sim_tasks(self.tasks())
        # No persistent cache: no hit/miss accounting, only executions.
        assert sweep_counters() == (0, 0, 0, 3)


def _unusable_cases():
    """(task, corrupt(record) -> record callers cannot read), per kind."""
    from repro.serve.sweep import scenario_task
    from repro.serve.telemetry import TelemetryConfig

    keys = np.arange(0, 5000, 3, dtype=np.uint64)
    shard_map = ShardMap.from_keys(keys, 2)
    per_shard = [FakeMeasurement(), FakeMeasurement(llc_misses=4.0)]
    spec = single_tenant_spec(
        rate_per_sec=4e5,
        n_requests=150,
        seed=1,
        topology=TopologySpec(n_shards=2, n_replicas=1, n_cores=2),
    )
    return {
        "open_loop": (
            open_loop_task(FakeMeasurement(), 1e6, 100, 0, 1),
            lambda record: {"summary": {}},
        ),
        "cluster": (
            cluster_task(
                per_shard, shard_map, request_keys(keys, 200, 4), 2e6, 200,
                4, 2, 2, RouterPolicy(), None, None, MachineModel(),
            ),
            lambda record: dict(record, shard_stats=[{"shard": 0}]),
        ),
        "scenario": (
            scenario_task(spec, "amzn", 4_000, 1, per_shard),
            lambda record: dict(record, tenants=[{"name": "t0"}]),
        ),
        "telemetry": (
            open_loop_task(
                FakeMeasurement(), 1e6, 100, 0, 1,
                telemetry=TelemetryConfig(window_ns=20_000.0),
            ),
            lambda record: {
                k: v for k, v in record.items() if k != "telemetry"
            },
        ),
    }


class TestUnusableRecords:
    """A stored record that lacks a field callers read is a counted miss
    and a ``bench.cache.rejects``; the rerun recomputes and overwrites
    it, so the next run hits."""

    @staticmethod
    def rejects():
        from repro.obs.metrics import get_registry

        return get_registry().snapshot()["counters"].get(
            "bench.cache.rejects", 0
        )

    @staticmethod
    def overwrite(cache, task, record):
        with open(cache._path(task), "w") as f:
            json.dump(
                {"schema": 1, "cell": task.key_fields(), "measurement": record},
                f,
            )

    @pytest.mark.parametrize(
        "kind", ["open_loop", "cluster", "scenario", "telemetry"]
    )
    def test_rejected_record_is_recomputed(
        self, kind, tmp_path, fresh_registry
    ):
        task, corrupt = _unusable_cases()[kind]
        cache = MeasurementCache(str(tmp_path))
        good = run_sim_tasks([task], cache=cache)[0]
        self.overwrite(cache, task, corrupt(good))
        clear_sim_results()
        cache.reset_stats()
        assert run_sim_tasks([task], cache=cache)[0] == good
        assert (cache.hits, cache.misses) == (0, 1)
        assert self.rejects() == 1

        clear_sim_results()
        cache.reset_stats()
        assert run_sim_tasks([task], cache=cache)[0] == good
        assert (cache.hits, cache.misses) == (1, 0)
        assert self.rejects() == 1

    def test_selector_recomputes_a_rejected_candidate(
        self, tmp_path, fresh_registry
    ):
        cache = MeasurementCache(str(tmp_path))
        first = select_under_slo(fleet(), jobs=1, sim_cache=cache, **SELECT_KW)
        task = open_loop_task(
            fleet()[0], SELECT_KW["offered_per_sec"], SELECT_KW["n_requests"],
            SELECT_KW["seed"], SELECT_KW["n_cores"],
        )
        self.overwrite(cache, task, {"summary": {}})
        clear_sim_results()
        cache.reset_stats()
        again = select_under_slo(fleet(), jobs=1, sim_cache=cache, **SELECT_KW)
        assert selection_tuple(again) == selection_tuple(first)
        assert (cache.hits, cache.misses) == (len(fleet()) - 1, 1)
        assert self.rejects() == 1
