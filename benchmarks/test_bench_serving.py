"""ext_serving companion: wall-clock speed of the serving subsystem.

Besides the usual pytest-benchmark timings, this module distils the
headline rates into ``BENCH_serving.json`` so CI can track a perf
trajectory for the serving subsystem:

* ``cells_per_sec`` — full ext_serving measurement cells, end to end;
* ``sim_events_per_sec`` — discrete events per second through the
  event loop on a 4-core open-loop run (the core count ``ext_serving``
  simulates);
* ``cluster_requests_per_sec`` — sharded, replicated, hedged cluster
  simulation throughput;
* ``selector_sweep_*_seconds`` — wall-clock of an SLO candidate sweep
  routed through ``run_sim_tasks``: cold at ``--jobs 1``, cold at
  ``--jobs 4``, and replayed from a warm ``MeasurementCache``.

Set ``BENCH_SERVING_JSON`` to redirect the output path (defaults to
the repo root).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.cache import MeasurementCache
from repro.bench.experiments import ext_serving
from repro.bench.harness import measure_index
from repro.memsim.counters import PerfCountersF
from repro.serve import (
    ServiceModel,
    poisson_arrivals,
    simulate_open_loop,
    throughput,
)
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.router import RouterPolicy, ShardMap
from repro.serve.selector import select_under_slo
from repro.serve.sweep import clear_sim_results

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Filled by the benchmarks below, written out once the module finishes.
_RATES = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_serving_json():
    yield
    if not _RATES:  # e.g. --benchmark-disable: no stats to record
        return
    cold = _RATES.get("selector_sweep_cold_jobs1_seconds")
    warm = _RATES.get("selector_sweep_warm_jobs4_seconds")
    if cold and warm:
        _RATES["selector_sweep_speedup"] = cold / warm
    path = os.environ.get("BENCH_SERVING_JSON") or os.path.join(
        REPO_ROOT, "BENCH_serving.json"
    )
    with open(path, "w") as f:
        json.dump(_RATES, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# open loop
# ---------------------------------------------------------------------------

OPEN_LOOP_CORES = 4


@pytest.fixture(scope="module")
def rmi_service(amzn, workload):
    m = measure_index(amzn, workload, "RMI", {"branching": 512}, n_lookups=150)
    return m, ServiceModel(m.counters)


def test_open_loop(benchmark, rmi_service):
    """4-core open loop at 70% of saturation throughput."""
    m, service = rmi_service
    rate = 0.7 * throughput(m, OPEN_LOOP_CORES).lookups_per_sec
    arrivals = poisson_arrivals(rate, 5_000, seed=0)
    result = benchmark(
        simulate_open_loop, service, arrivals, n_cores=OPEN_LOOP_CORES
    )
    assert len(result.requests) == 5_000
    if benchmark.stats is not None:
        events = 2 * len(result.requests) + result.total_steals
        _RATES["sim_events_per_sec"] = events / benchmark.stats.stats.mean


# ---------------------------------------------------------------------------
# sharded cluster
# ---------------------------------------------------------------------------

N_CLUSTER_REQ = 2_500


def _cluster_run():
    rate = 4e6
    span = N_CLUSTER_REQ / rate * 1e9
    cluster = Cluster(
        shard_map=ShardMap([0, 500]),
        services=[
            ServiceModel(PerfCountersF(instructions=300, llc_misses=2.0)),
            ServiceModel(PerfCountersF(instructions=400, llc_misses=3.0)),
        ],
        n_replicas=2,
        n_cores=2,
        policy=RouterPolicy(hedge_after_ns=span / 100.0),
        faults=None,
    )
    arrivals = poisson_arrivals(rate, N_CLUSTER_REQ, seed=0)
    keys = [(13 * i) % 1000 for i in range(N_CLUSTER_REQ)]
    return simulate_cluster(cluster, arrivals, keys)


def test_cluster(benchmark):
    """Sharded, replicated, hedged cluster on one event queue."""
    result = benchmark(_cluster_run)
    assert len(result.records) == N_CLUSTER_REQ
    if benchmark.stats is not None:
        _RATES["cluster_requests_per_sec"] = (
            N_CLUSTER_REQ / benchmark.stats.stats.mean
        )


# ---------------------------------------------------------------------------
# parallel, cached selector sweeps
# ---------------------------------------------------------------------------


class _Candidate:
    """Duck-typed measurement: a priced index config for the selector."""

    def __init__(self, name, size_bytes, instructions, llc_misses):
        self.index = name
        self.config = {}
        self.size_bytes = size_bytes
        self.counters = PerfCountersF(
            instructions=instructions,
            llc_misses=llc_misses,
            l1_hits=20.0,
            branch_misses=3.0,
        )


def _fleet():
    return [
        _Candidate(f"C{k}", 1 << (12 + k), 200.0 + 40.0 * k, 6.0 - 0.5 * k)
        for k in range(10)
    ]


SWEEP_KW = dict(
    offered_per_sec=2e6,
    p99_slo_ns=80_000.0,
    n_requests=2_000,
    seed=0,
    n_cores=2,
)


@pytest.fixture(scope="module")
def sweep_cache(tmp_path_factory):
    return MeasurementCache(str(tmp_path_factory.mktemp("bench")))


def _sweep(jobs, cache):
    clear_sim_results()
    return select_under_slo(_fleet(), jobs=jobs, sim_cache=cache, **SWEEP_KW)


def _pedantic_sweep(benchmark, jobs, cache):
    sel = benchmark.pedantic(
        _sweep, args=(jobs, cache), rounds=1, iterations=1, warmup_rounds=0
    )
    assert len(sel.candidates) == len(_fleet())
    return benchmark.stats.stats.mean if benchmark.stats is not None else None


def test_selector_sweep_cold_jobs1(benchmark, tmp_path):
    """10-candidate SLO sweep, serial, empty cache: the baseline."""
    mean = _pedantic_sweep(
        benchmark, 1, MeasurementCache(str(tmp_path))
    )
    if mean is not None:
        _RATES["selector_sweep_cold_jobs1_seconds"] = mean


def test_selector_sweep_cold_jobs4(benchmark, sweep_cache):
    """Same sweep fanned out over a 4-worker process pool (and priming
    the module cache for the warm-replay bench below)."""
    mean = _pedantic_sweep(benchmark, 4, sweep_cache)
    if mean is not None:
        _RATES["selector_sweep_cold_jobs4_seconds"] = mean


def test_selector_sweep_warm_jobs4(benchmark, sweep_cache):
    """Replay of the sweep from the persistent cache: zero simulations."""
    mean = _pedantic_sweep(benchmark, 4, sweep_cache)
    assert sweep_cache.hits >= len(_fleet())
    if mean is not None:
        _RATES["selector_sweep_warm_jobs4_seconds"] = mean


# ---------------------------------------------------------------------------
# end-to-end measurement cell
# ---------------------------------------------------------------------------


def test_serving_measurement_cell(benchmark, settings):
    """One ext_serving grid cell, end to end (dataset prebuilt)."""
    cell = ext_serving.cells(settings)[0]
    dataset, workload = cell.materialize()
    m = benchmark(cell.run, dataset, workload)
    assert m.latency_ns > 0
    if benchmark.stats is not None:
        _RATES["cells_per_sec"] = 1.0 / benchmark.stats.stats.mean
