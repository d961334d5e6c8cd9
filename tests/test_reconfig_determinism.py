"""Determinism regressions for live reconfiguration.

Same bar as ``test_cluster_determinism.py``: repeated runs of an
actively-reconfiguring cluster are bit-identical -- handoff (epoch)
schedules, rebuild completion times, autoscaler decisions, and the
latency percentiles -- across 5 seeds x 2 runs.  And the cache-key
hygiene rule the telemetry layer set: a :class:`ClusterTask` gains a
``reconfig`` key-fields entry *only* when a spec with triggers is
attached, so pre-reconfig caches stay valid and a warm-cache replay of
a reconfiguring sweep is 100% hits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.cache import MeasurementCache, cache_key
from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import ServiceModel
from repro.serve.metrics import summarize
from repro.serve.reconfig import (
    AutoscaleSpec,
    RebuildSpec,
    ReconfigSpec,
    SplitSpec,
)
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.sweep import clear_sim_results, cluster_task, run_sim_tasks

RATE = 3e5
N_REQ = 300
SPAN_NS = N_REQ / RATE * 1e9


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_sim_results()
    yield
    clear_sim_results()


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
    raw = np.random.default_rng(1).integers(
        0, 2**40, size=5000, dtype=np.uint64
    )
    return np.unique(raw)


def active_spec(keys):
    bounds = ShardMap.from_keys(keys, 3).lower_bounds
    return ReconfigSpec(
        splits=(
            SplitSpec(
                at_ns=0.2 * SPAN_NS,
                shard=0,
                at_key=bounds[0] + (bounds[1] - bounds[0]) // 2,
            ),
        ),
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
            min_replicas=2,
            max_replicas=4,
        ),
    )


def run_once(keys, seed):
    cluster = Cluster(
        shard_map=ShardMap.from_keys(keys, 3),
        services=[ServiceModel(counters()) for _ in range(3)],
        n_replicas=2,
        n_cores=2,
        policy=RouterPolicy(),
        faults=None,
        reconfig=active_spec(keys),
    )
    return simulate_cluster(
        cluster,
        poisson_arrivals(RATE, N_REQ, seed),
        request_keys(keys, N_REQ, seed),
    )


class TestRunDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_two_runs_bit_identical(self, keys, seed):
        a, b = run_once(keys, seed), run_once(keys, seed)
        # Handoff schedule: the epoch history, install times included.
        assert a.epochs == b.epochs
        # Rebuild completion times and autoscaler decisions.
        assert a.rebuilds == b.rebuilds
        assert a.scale_events == b.scale_events
        assert a.live_replicas == b.live_replicas
        # Per-request floats and the percentile summary.
        assert [
            (r.rid, r.shard, r.replica, r.latency_ns) for r in a.records
        ] == [(r.rid, r.shard, r.replica, r.latency_ns) for r in b.records]
        la = [r.latency_ns for r in a.records if r.completed]
        lb = [r.latency_ns for r in b.records if r.completed]
        sa, sb = summarize(la), summarize(lb)
        assert (sa.p50_ns, sa.p95_ns, sa.p99_ns) == (
            sb.p50_ns,
            sb.p95_ns,
            sb.p99_ns,
        )

    def test_distinct_seeds_distinct_runs(self, keys):
        a, b = run_once(keys, 0), run_once(keys, 1)
        assert a.makespan_ns != b.makespan_ns


class TestCacheKeyHygiene:
    def task(self, keys, reconfig):
        shard_map = ShardMap.from_keys(keys, 3)
        return cluster_task(
            [FakeMeasurement() for _ in range(3)],
            shard_map,
            request_keys(keys, N_REQ, 0),
            RATE,
            N_REQ,
            0,
            2,
            2,
            RouterPolicy(),
            None,
            None,
            reconfig=reconfig,
        )

    def test_reconfig_field_only_when_set(self, keys):
        bare = self.task(keys, None)
        noop = self.task(keys, ReconfigSpec())
        active = self.task(keys, active_spec(keys))
        # None and the trigger-free spec both freeze to no entry at all:
        # pre-reconfig cache keys are bit-for-bit unchanged.
        assert "reconfig" not in bare.key_fields()
        assert "reconfig" not in noop.key_fields()
        assert cache_key(bare) == cache_key(noop)
        # An active spec keys the run.
        assert "reconfig" in active.key_fields()
        assert cache_key(active) != cache_key(bare)

    def test_warm_cache_replays_with_full_hits(self, keys, tmp_path):
        cache = MeasurementCache(str(tmp_path))
        tasks = [self.task(keys, active_spec(keys)) for _ in range(1)]
        cold = run_sim_tasks(tasks, jobs=2, cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        cache.reset_stats()
        clear_sim_results()  # drop the in-process memo: hit the cache
        warm = run_sim_tasks(tasks, cache=cache)
        assert cache.hits == 1 and cache.misses == 0
        assert warm == cold
        # The replayed record still carries the reconfig outcome.
        assert warm[0]["epoch_count"] == 2
        assert warm[0]["final_shards"] == 4
