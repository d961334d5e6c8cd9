"""Unit tests for the cluster simulator: faults, router, failure paths."""

import pytest

from repro.memsim.counters import PerfCountersF
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serve.arrivals import poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import ServiceModel
from repro.serve.faults import (
    CRASH,
    SLOW,
    FaultConfig,
    fault_schedule,
    downtime_fraction,
)
from repro.serve.router import (
    RouterPolicy,
    ShardMap,
    pick_replica,
    request_keys,
)
from repro.serve.sweep import clear_sim_results


def counters(instructions=50, llc_misses=3.0, branch_misses=1.0):
    return PerfCountersF(
        instructions=instructions,
        branch_misses=branch_misses,
        llc_misses=llc_misses,
        l1_hits=4.0,
    )


def make_cluster(
    n_shards=2,
    n_replicas=2,
    n_cores=2,
    policy=RouterPolicy(),
    faults=None,
    span=1_000_000,
):
    smap = ShardMap.uniform(0, span, n_shards)
    svc = ServiceModel(counters())
    return Cluster(
        shard_map=smap,
        services=[svc] * n_shards,
        n_replicas=n_replicas,
        n_cores=n_cores,
        policy=policy,
        faults=faults,
    )


def spread_keys(n, span=1_000_000, seed=0):
    """Deterministic keys covering the whole [0, span) keyspace."""
    return request_keys(list(range(span // 1000, span, span // 1000)), n, seed)


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        cfg = FaultConfig()
        assert not cfg.enabled
        assert fault_schedule(cfg, 2, 2, 1e6) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(crash_mttf_ns=0.0)
        with pytest.raises(ValueError):
            FaultConfig(slow_mttf_ns=-1.0)
        with pytest.raises(ValueError):
            FaultConfig(crash_mttr_ns=0.0)
        with pytest.raises(ValueError):
            FaultConfig(slow_mttf_ns=1e6, slow_factor=1.0)

    def test_enabled_when_either_process_is_on(self):
        assert FaultConfig(crash_mttf_ns=1e6).enabled
        assert FaultConfig(slow_mttf_ns=1e6).enabled


class TestFaultSchedule:
    CFG = FaultConfig(crash_mttf_ns=2e5, slow_mttf_ns=3e5, seed=11)

    def test_pure_function_of_inputs(self):
        a = fault_schedule(self.CFG, 3, 2, 2e6)
        b = fault_schedule(self.CFG, 3, 2, 2e6)
        assert a == b
        assert a  # dense enough to actually generate events

    def test_seed_changes_schedule(self):
        other = FaultConfig(crash_mttf_ns=2e5, slow_mttf_ns=3e5, seed=12)
        assert fault_schedule(self.CFG, 3, 2, 2e6) != fault_schedule(
            other, 3, 2, 2e6
        )

    def test_sorted_and_within_horizon(self):
        events = fault_schedule(self.CFG, 3, 2, 2e6)
        keys = [(e.time_ns, e.shard, e.replica, e.kind) for e in events]
        assert keys == sorted(keys)
        assert all(0.0 < e.time_ns < 2e6 for e in events)
        assert all(e.duration_ns > 0.0 for e in events)

    def test_adding_replicas_preserves_existing_streams(self):
        """Per-(shard, replica, kind) seeding: topology growth is stable."""
        small = fault_schedule(self.CFG, 2, 1, 2e6)
        large = fault_schedule(self.CFG, 2, 3, 2e6)
        large_sub = [e for e in large if e.replica == 0]
        assert small == large_sub

    def test_topology_and_horizon_validation(self):
        with pytest.raises(ValueError):
            fault_schedule(self.CFG, 0, 1, 1e6)
        with pytest.raises(ValueError):
            fault_schedule(self.CFG, 1, 0, 1e6)
        with pytest.raises(ValueError):
            fault_schedule(self.CFG, 1, 1, 0.0)

    def test_downtime_fraction_counts_crashes_only(self):
        events = fault_schedule(self.CFG, 2, 2, 2e6)
        frac = downtime_fraction(events, 2, 2, 2e6)
        assert 0.0 < frac < 1.0
        crash_only = [e for e in events if e.kind == CRASH]
        assert downtime_fraction(crash_only, 2, 2, 2e6) == frac


class TestShardMap:
    def test_shard_for_binary_search(self):
        smap = ShardMap([0, 100, 200])
        assert smap.shard_for(0) == 0
        assert smap.shard_for(99) == 0
        assert smap.shard_for(100) == 1
        assert smap.shard_for(250) == 2

    def test_below_first_bound_clamps_to_shard_zero(self):
        smap = ShardMap([100, 200])
        assert smap.shard_for(5) == 0

    def test_from_keys_equal_count_split(self):
        keys = list(range(0, 1000, 10))
        smap = ShardMap.from_keys(keys, 4)
        assert smap.n_shards == 4
        per_shard = [0] * 4
        for k in keys:
            per_shard[smap.shard_for(k)] += 1
        assert per_shard == [25, 25, 25, 25]

    def test_from_keys_nudges_duplicate_bounds(self):
        smap = ShardMap.from_keys([5, 5, 5, 5, 9], 4)
        bounds = smap.lower_bounds
        assert bounds == sorted(set(bounds))

    def test_uniform(self):
        smap = ShardMap.uniform(0, 400, 4)
        assert smap.lower_bounds == [0, 100, 200, 300]

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap([])
        with pytest.raises(ValueError):
            ShardMap([10, 10])
        with pytest.raises(ValueError):
            ShardMap.from_keys([1, 2], 3)
        with pytest.raises(ValueError):
            ShardMap.uniform(5, 5, 1)
        with pytest.raises(ValueError):
            ShardMap.uniform(0, 2, 4)


class TestRouterPolicy:
    def test_backoff_doubles_then_caps(self):
        p = RouterPolicy(backoff_base_ns=100.0, backoff_cap_ns=450.0)
        assert p.backoff_ns(1) == 100.0
        assert p.backoff_ns(2) == 200.0
        assert p.backoff_ns(3) == 400.0
        assert p.backoff_ns(4) == 450.0  # capped
        assert p.backoff_ns(10) == 450.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RouterPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RouterPolicy(hedge_after_ns=0.0)
        with pytest.raises(ValueError):
            RouterPolicy(backoff_base_ns=-1.0)
        with pytest.raises(ValueError):
            RouterPolicy(batch_window_ns=-1.0)
        with pytest.raises(ValueError):
            RouterPolicy().backoff_ns(0)


class _Rep:
    def __init__(self, rid, backlog, up=True):
        self.rid = rid
        self.backlog = backlog
        self.up = up


class TestPickReplica:
    def test_least_backlog_wins(self):
        reps = [_Rep(0, 5), _Rep(1, 2), _Rep(2, 9)]
        assert pick_replica(reps).rid == 1

    def test_tie_goes_to_lowest_id(self):
        reps = [_Rep(0, 3), _Rep(1, 3)]
        assert pick_replica(reps).rid == 0

    def test_down_replicas_skipped(self):
        reps = [_Rep(0, 0, up=False), _Rep(1, 7)]
        assert pick_replica(reps).rid == 1

    def test_exclude_forces_different_replica(self):
        reps = [_Rep(0, 0), _Rep(1, 7)]
        assert pick_replica(reps, exclude=0).rid == 1

    def test_none_when_all_down_or_excluded(self):
        assert pick_replica([_Rep(0, 0, up=False)]) is None
        assert pick_replica([_Rep(0, 0)], exclude=0) is None


class TestRequestKeys:
    def test_deterministic_and_from_key_set(self):
        keys = list(range(100, 200))
        a = request_keys(keys, 50, seed=4)
        b = request_keys(keys, 50, seed=4)
        assert a == b
        assert set(a) <= set(keys)
        assert request_keys(keys, 50, seed=5) != a

    def test_validation(self):
        with pytest.raises(ValueError):
            request_keys([1, 2, 3], 0, seed=0)


class TestClusterValidation:
    def test_services_must_match_shards(self):
        smap = ShardMap.uniform(0, 100, 2)
        with pytest.raises(ValueError):
            Cluster(shard_map=smap, services=[ServiceModel(counters())])

    def test_replica_count_positive(self):
        smap = ShardMap.uniform(0, 100, 1)
        with pytest.raises(ValueError):
            Cluster(
                shard_map=smap,
                services=[ServiceModel(counters())],
                n_replicas=0,
            )

    def test_core_count_positive(self):
        """Rejected at construction, not later inside a simulation."""
        smap = ShardMap.uniform(0, 100, 1)
        with pytest.raises(ValueError, match="n_cores must be >= 1, got 0"):
            Cluster(
                shard_map=smap,
                services=[ServiceModel(counters())],
                n_cores=0,
            )

    def test_simulate_input_validation(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            simulate_cluster(cluster, [0.0, 1.0], [5])
        with pytest.raises(ValueError):
            simulate_cluster(cluster, [], [])


class TestClusterFaultFree:
    def test_routes_to_the_owning_shard(self):
        cluster = make_cluster(n_shards=4)
        arrivals = poisson_arrivals(1e6, 200, seed=0)
        keys = spread_keys(200)
        result = simulate_cluster(cluster, arrivals, keys)
        for r in result.records:
            assert r.shard == cluster.shard_map.shard_for(r.key)
            assert r.completed and not r.failed
            assert r.attempts == 1 and r.retries == 0
        assert result.availability == 1.0
        assert result.total_retries == 0
        assert result.crashes == 0 and result.slow_events == 0

    def test_summary_covers_all_requests(self):
        cluster = make_cluster()
        arrivals = poisson_arrivals(2e6, 300, seed=1)
        result = simulate_cluster(cluster, arrivals, spread_keys(300))
        s = result.summary()
        assert s.n == 300
        assert result.throughput_per_sec > 0
        assert result.max_queue_depth >= 1

    def test_shard_stats_sum_to_totals(self):
        cluster = make_cluster(n_shards=3)
        arrivals = poisson_arrivals(2e6, 400, seed=2)
        result = simulate_cluster(cluster, arrivals, spread_keys(400))
        assert sum(s.completed for s in result.shard_stats) == result.completed
        assert all(s.completed > 0 for s in result.shard_stats)


class TestCrashFaults:
    def crashy(self, seed=0):
        # MTTF far below the run span: crashes are certain.
        return FaultConfig(crash_mttf_ns=3e4, crash_mttr_ns=2e4, seed=seed)

    def test_crashes_trigger_retries_and_recovery(self):
        cluster = make_cluster(faults=self.crashy())
        arrivals = poisson_arrivals(4e6, 600, seed=3)
        result = simulate_cluster(cluster, arrivals, spread_keys(600))
        assert result.crashes > 0
        assert result.total_retries > 0
        assert result.completed + result.failed == 600
        # Replicated shards with retries: the vast majority completes.
        assert result.availability > 0.9

    def test_retried_requests_marked(self):
        cluster = make_cluster(faults=self.crashy())
        arrivals = poisson_arrivals(4e6, 600, seed=3)
        result = simulate_cluster(cluster, arrivals, spread_keys(600))
        retried = [r for r in result.records if r.retries > 0]
        assert retried
        assert all(r.attempts >= 2 for r in retried)

    def test_unreplicated_shard_fails_requests_when_dark(self):
        policy = RouterPolicy(
            max_attempts=2, backoff_base_ns=10.0, backoff_cap_ns=20.0
        )
        faults = FaultConfig(crash_mttf_ns=2e4, crash_mttr_ns=4e5, seed=1)
        cluster = make_cluster(
            n_shards=1, n_replicas=1, policy=policy, faults=faults
        )
        arrivals = poisson_arrivals(4e6, 500, seed=4)
        result = simulate_cluster(cluster, arrivals, [50] * 500)
        assert result.failed > 0
        assert result.availability < 1.0
        failed = [r for r in result.records if r.failed]
        assert all(not r.completed for r in failed)
        assert all(r.attempts == 2 for r in failed)

    def test_degraded_routing_concentrates_on_survivor(self):
        """One replica crashed for most of the run: the other serves."""
        # Seed 9 with this horizon yields exactly one crash (replica 1
        # at t=3463 ns, down for 2.6 ms -- the rest of the run).
        faults = FaultConfig(crash_mttf_ns=3e4, crash_mttr_ns=1e6, seed=9)
        cluster = make_cluster(n_shards=1, n_replicas=2, faults=faults)
        arrivals = poisson_arrivals(2e6, 400, seed=5)
        result = simulate_cluster(
            cluster, arrivals, [50] * 400, fault_horizon_ns=2e4
        )
        assert result.crashes == 1
        assert result.availability == 1.0
        by_survivor = sum(1 for r in result.records if r.replica == 0)
        assert by_survivor > 0.9 * len(result.records)

    def test_to_metrics_publishes_counters_and_min_gauge(self):
        cluster = make_cluster(faults=self.crashy())
        arrivals = poisson_arrivals(4e6, 600, seed=3)
        result = simulate_cluster(cluster, arrivals, spread_keys(600))
        reg = MetricsRegistry()
        result.to_metrics(registry=reg)
        snap = reg.snapshot()
        assert snap["counters"]["serve.cluster.requests"] == 600
        assert snap["counters"]["serve.cluster.completed"] == result.completed
        assert snap["counters"]["serve.cluster.retries"] == result.total_retries
        assert (
            snap["counters"]["serve.cluster.faults.crashes"] == result.crashes
        )
        assert snap["gauges"]["serve.cluster.availability.min"] == (
            result.availability
        )
        assert snap["histograms"]["serve.cluster.shard_queue_depth.max"][
            "count"
        ] == len(result.shard_stats)
        # Low-water semantics: a later, better run must not raise it.
        reg.gauge("serve.cluster.availability.min").set_min(1.0)
        assert reg.gauge("serve.cluster.availability.min").value == (
            result.availability
        )
        # And merge_snapshot keeps the minimum for .min-suffixed gauges.
        other = MetricsRegistry()
        other.gauge("serve.cluster.availability.min").set(1.0)
        other.merge_snapshot(snap)
        assert other.gauge("serve.cluster.availability.min").value == (
            result.availability
        )


class TestSlowFaults:
    def test_gray_replica_inflates_latency(self):
        # First slow window opens early and lasts the whole run.
        faults = FaultConfig(
            slow_mttf_ns=1e4, slow_mttr_ns=1e8, slow_factor=8.0, seed=0
        )
        slow_cluster = make_cluster(n_shards=1, n_replicas=1, faults=faults)
        ok_cluster = make_cluster(n_shards=1, n_replicas=1)
        arrivals = poisson_arrivals(1e6, 300, seed=6)
        keys = [50] * 300
        slow = simulate_cluster(slow_cluster, arrivals, keys)
        ok = simulate_cluster(ok_cluster, arrivals, keys)
        assert slow.slow_events > 0
        assert slow.summary().p99_ns > ok.summary().p99_ns
        # Slow is a gray failure: nothing is lost, only delayed.
        assert slow.availability == 1.0
        assert slow.total_retries == 0

    def test_hedging_fires_and_duplicates_to_other_replica(self):
        faults = FaultConfig(
            slow_mttf_ns=5e4, slow_mttr_ns=5e4, slow_factor=8.0, seed=3
        )
        policy = RouterPolicy(hedge_after_ns=2_000.0)
        cluster = make_cluster(
            n_shards=1, n_replicas=2, policy=policy, faults=faults
        )
        arrivals = poisson_arrivals(3e6, 500, seed=7)
        result = simulate_cluster(cluster, arrivals, [50] * 500)
        assert result.total_hedges > 0
        hedged = [r for r in result.records if r.hedged]
        assert hedged
        assert all(r.attempts >= 2 for r in hedged)
        assert result.availability == 1.0

    def test_hedging_disabled_with_single_replica(self):
        policy = RouterPolicy(hedge_after_ns=1.0)
        cluster = make_cluster(n_shards=1, n_replicas=1, policy=policy)
        arrivals = poisson_arrivals(3e6, 200, seed=8)
        result = simulate_cluster(cluster, arrivals, [50] * 200)
        assert result.total_hedges == 0


class FakeMeasurement:
    """Duck-typed stand-in for repro.bench.harness.Measurement."""

    def __init__(self, name, size_bytes, **counter_kwargs):
        self.index = name
        self.config = {}
        self.size_bytes = size_bytes
        self.counters = counters(**counter_kwargs)


class TestClusterSelection:
    def families(self):
        def fam(name, size, **kw):
            return [FakeMeasurement(name, size, **kw) for _ in range(2)]

        return {
            "Small": fam("Small", 2_000, instructions=80),
            "Fast": fam("Fast", 40_000, instructions=30, llc_misses=1.0),
            "Big": fam("Big", 400_000, instructions=40, llc_misses=2.0),
        }

    def select(self, **overrides):
        from repro.serve.selector import select_cluster_under_slo

        keys = list(range(0, 10_000, 5))
        kwargs = dict(
            offered_per_sec=4e6,
            p99_slo_ns=100_000.0,
            n_requests=300,
            seed=0,
            n_replicas=2,
            n_cores=2,
        )
        kwargs.update(overrides)
        return select_cluster_under_slo(
            self.families(), ShardMap.from_keys(keys, 2), keys, **kwargs
        )

    def test_cheapest_eligible_family_wins(self):
        sel = self.select()
        assert sel.chosen is not None
        assert sel.chosen.index == "Small"
        assert {c.index for c in sel.candidates} == {"Small", "Fast", "Big"}
        assert all(c.summary is not None for c in sel.candidates)

    def test_per_shard_memory_budget_excludes_families(self):
        sel = self.select(shard_memory_budget_bytes=10_000.0)
        eligible = {c.index for c in sel.eligible()}
        assert "Big" not in eligible and "Fast" not in eligible
        assert sel.chosen.index == "Small"

    def test_impossible_slo_chooses_none(self):
        sel = self.select(p99_slo_ns=1.0)
        assert sel.chosen is None
        assert sel.eligible() == []

    def test_availability_floor_under_dense_faults(self):
        # One replica per shard and long crashes: requests are lost.
        faults = FaultConfig(crash_mttf_ns=2e4, crash_mttr_ns=4e5, seed=1)
        sel = self.select(
            n_replicas=1,
            min_availability=1.0,
            faults=faults,
            policy=RouterPolicy(
                max_attempts=2, backoff_base_ns=10.0, backoff_cap_ns=20.0
            ),
        )
        assert any(c.availability < 1.0 for c in sel.candidates)
        assert all(
            c.availability >= 1.0 for c in sel.eligible()
        )

    def test_deterministic(self):
        executed = get_registry().counter("serve.sweep.cache.executed")
        a = self.select()
        clear_sim_results()  # the second call must simulate, not replay
        before = executed.value
        b = self.select()
        assert executed.value - before == len(self.families())
        assert a.candidates == b.candidates
        assert a.chosen == b.chosen


class TestBatching:
    def test_batched_run_completes_everything(self):
        policy = RouterPolicy(batch_window_ns=500.0)
        cluster = make_cluster(policy=policy)
        arrivals = poisson_arrivals(2e6, 400, seed=9)
        keys = spread_keys(400)
        result = simulate_cluster(cluster, arrivals, keys)
        assert result.completed == 400
        assert result.availability == 1.0

    def test_batching_delays_dispatch(self):
        arrivals = poisson_arrivals(1e5, 100, seed=10)  # sparse traffic
        keys = [50] * 100
        plain = simulate_cluster(make_cluster(n_shards=1), arrivals, keys)
        batched = simulate_cluster(
            make_cluster(
                n_shards=1, policy=RouterPolicy(batch_window_ns=2_000.0)
            ),
            arrivals,
            keys,
        )
        # Sparse arrivals: each batch holds one request that waited out
        # the full window before dispatch.
        assert batched.summary().p50_ns == pytest.approx(
            plain.summary().p50_ns + 2_000.0
        )

    def test_batched_run_is_deterministic(self):
        policy = RouterPolicy(batch_window_ns=300.0)
        arrivals = poisson_arrivals(2e6, 300, seed=11)
        keys = spread_keys(300)
        a = simulate_cluster(make_cluster(policy=policy), arrivals, keys)
        b = simulate_cluster(make_cluster(policy=policy), arrivals, keys)
        assert [(r.rid, r.finish_ns) for r in a.records] == [
            (r.rid, r.finish_ns) for r in b.records
        ]
