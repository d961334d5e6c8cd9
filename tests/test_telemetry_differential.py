"""Byte-identity tests for serving telemetry across runs and runners.

The hard bar from ``docs/observability.md``: telemetry is an *observer*.

* The simulators on their sealed queue and on the plain-heap oracle
  produce byte-identical windowed aggregates and attempt traces --
  open and closed loop, faulted and hedged clusters, shedding tenancy
  runs;
* a degenerate 1-shard/1-replica no-fault cluster reports the *same*
  series as the equivalent open-loop run, on either queue;
* attaching telemetry never perturbs the simulation results, and
  telemetry-off cache keys don't mention telemetry at all;
* faulted, hedged and shedding runs surface in the series and traces;
* sweep-task records carry the series through the JSON round trip and
  are identical serial vs ``jobs=2`` vs cache replay across queues.

Every comparison below is exact ``==`` -- no approx anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.cache import MeasurementCache, cache_key
from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import (
    ServiceModel,
    simulate_closed_loop,
    simulate_open_loop,
)
from repro.serve.faults import FaultConfig
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
)
from repro.serve.sweep import (
    clear_sim_results,
    cluster_task,
    open_loop_task,
    run_sim_tasks,
)
from repro.serve.telemetry import TelemetryConfig, TimeSeries
from repro.serve.tenancy import simulate_scenario
from serve_reference import run_on_both_queues, use_event_queue

RATE = 3e5
N_REQ = 400
SPAN_NS = N_REQ / RATE * 1e9
WINDOW_NS = SPAN_NS / 10.0


def counters(instructions=500):
    return PerfCountersF(
        instructions=instructions,
        branch_misses=5.0,
        llc_misses=30.0,
        l1_hits=40.0,
    )


def service():
    return ServiceModel(counters())


def tel(traces=False, slo_p99_ns=None):
    return TelemetryConfig(
        window_ns=WINDOW_NS, slo_p99_ns=slo_p99_ns, traces=traces
    )


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_sim_results()
    yield
    clear_sim_results()


@pytest.fixture(scope="module")
def keys():
    raw = np.random.default_rng(0).integers(
        0, 2**40, size=6000, dtype=np.uint64
    )
    return np.unique(raw)


def assert_series_equal(a: TimeSeries, b: TimeSeries):
    assert a == b
    assert a.content_key() == b.content_key()
    assert a.to_json() == b.to_json()


class TestOpenLoopCrossEngine:
    """Event loop on the sealed queue vs on the plain-heap oracle."""

    def run_both(self, n_cores, monkeypatch, **tel_kwargs):
        arrivals = poisson_arrivals(RATE, N_REQ, seed=7)
        cfg = tel(**tel_kwargs)
        return run_on_both_queues(
            monkeypatch,
            lambda: simulate_open_loop(
                service(), arrivals, n_cores, telemetry=cfg
            ),
        )

    def test_sealed_queue_path_multi_core(self, monkeypatch):
        heap, sealed = self.run_both(4, monkeypatch, traces=True)
        assert_series_equal(heap.telemetry, sealed.telemetry)
        assert heap.traces == sealed.traces
        assert heap.requests == sealed.requests

    def test_closed_loop(self, monkeypatch):
        heap, sealed = run_on_both_queues(
            monkeypatch,
            lambda: simulate_closed_loop(
                service(),
                n_clients=8,
                n_requests=N_REQ,
                mean_think_ns=500.0,
                seed=3,
                n_cores=2,
                telemetry=tel(traces=True),
            ),
        )
        assert_series_equal(heap.telemetry, sealed.telemetry)
        assert heap.traces == sealed.traces

    def test_telemetry_does_not_perturb_results(self):
        arrivals = poisson_arrivals(RATE, N_REQ, seed=7)
        plain = simulate_open_loop(service(), arrivals, 2)
        observed = simulate_open_loop(
            service(), arrivals, 2, telemetry=tel(True)
        )
        assert observed.requests == plain.requests
        assert observed.max_queue_depth == plain.max_queue_depth
        assert observed.makespan_ns == plain.makespan_ns
        assert observed.total_steals == plain.total_steals


def faulty_cluster(keys, hedge_after_ns=None):
    """2x2 cluster with crash+slow faults (and optional hedging) tuned
    so retries, cancellations and -- when hedging -- hedges all fire."""
    shard_map = ShardMap.from_keys(keys, 2)
    policy = RouterPolicy(
        backoff_base_ns=SPAN_NS / 50.0,
        backoff_cap_ns=SPAN_NS / 5.0,
        hedge_after_ns=hedge_after_ns,
    )
    faults = FaultConfig(
        crash_mttf_ns=SPAN_NS / 2.0,
        crash_mttr_ns=SPAN_NS / 10.0,
        slow_mttf_ns=SPAN_NS / 2.0,
        slow_mttr_ns=SPAN_NS / 8.0,
        slow_factor=8.0,
        seed=11,
    )
    return Cluster(
        shard_map=shard_map,
        services=[service(), service()],
        n_replicas=2,
        n_cores=2,
        policy=policy,
        faults=faults,
    )


class TestClusterCrossEngine:
    """Faulted and hedged clusters on the sealed queue vs on the
    plain-heap oracle."""

    def run_both(self, keys, monkeypatch, hedge_after_ns=None):
        arrivals = poisson_arrivals(RATE, N_REQ, seed=5)
        lookup = request_keys(keys, N_REQ, seed=5)
        return run_on_both_queues(
            monkeypatch,
            lambda: simulate_cluster(
                faulty_cluster(keys, hedge_after_ns),
                arrivals,
                lookup,
                fault_horizon_ns=1.5 * SPAN_NS,
                telemetry=tel(traces=True),
            ),
        )

    def test_faulted_cluster_series_and_traces(self, keys, monkeypatch):
        heap, sealed = self.run_both(keys, monkeypatch)
        assert_series_equal(heap.telemetry, sealed.telemetry)
        assert heap.traces == sealed.traces
        # The scenario actually exercises the fault machinery.
        ts = heap.telemetry
        assert ts.retries > 0
        assert any(t.status != "completed" for t in heap.traces)

    def test_hedged_cluster_series_and_traces(self, keys, monkeypatch):
        heap, sealed = self.run_both(
            keys, monkeypatch, hedge_after_ns=4.0 * service().service_ns(2)
        )
        assert_series_equal(heap.telemetry, sealed.telemetry)
        assert heap.traces == sealed.traces
        assert heap.telemetry.hedges > 0
        assert any(t.cause == "hedge" for t in heap.traces)

    def test_totals_telescope_to_cluster_result(self, keys, monkeypatch):
        _, result = self.run_both(keys, monkeypatch)
        ts = result.telemetry
        assert ts.completed == result.completed
        assert ts.failed == result.failed
        assert ts.retries == result.total_retries
        assert ts.hedges == result.total_hedges
        assert ts.max_queue_depth == result.max_queue_depth

    def test_telemetry_does_not_perturb_results(self, keys):
        arrivals = poisson_arrivals(RATE, N_REQ, seed=5)
        lookup = request_keys(keys, N_REQ, seed=5)
        runs = [
            simulate_cluster(
                faulty_cluster(keys),
                arrivals,
                lookup,
                fault_horizon_ns=1.5 * SPAN_NS,
                telemetry=cfg,
            )
            for cfg in (None, tel(traces=True))
        ]
        assert runs[0].latencies_ns == runs[1].latencies_ns
        assert runs[0].completed == runs[1].completed
        assert runs[0].failed == runs[1].failed
        assert runs[0].total_retries == runs[1].total_retries
        assert runs[0].max_queue_depth == runs[1].max_queue_depth


class TestDegenerateClusterMatchesOpenLoop:
    """A 1x1 fault-free cluster IS the open loop -- telemetry included,
    on either event queue."""

    def test_series_match(self, keys, event_queue):
        arrivals = poisson_arrivals(RATE, N_REQ, seed=9)
        open_result = simulate_open_loop(
            service(), arrivals, 2, telemetry=tel()
        )
        cluster = Cluster(
            shard_map=ShardMap.from_keys(keys, 1),
            services=[service()],
            n_replicas=1,
            n_cores=2,
        )
        cluster_result = simulate_cluster(
            cluster,
            arrivals,
            request_keys(keys, N_REQ, seed=9),
            telemetry=tel(),
        )
        assert_series_equal(open_result.telemetry, cluster_result.telemetry)


class TestTenancyCrossEngine:
    """A shedding tenancy run on the sealed queue vs on the plain-heap
    oracle."""

    def spec(self):
        svc_ns = service().service_ns(1)
        rate = 0.9 * 1e9 / svc_ns
        return ScenarioSpec(
            name="pressure",
            tenants=(
                TenantSpec(
                    name="gold",
                    slo_class="gold",
                    arrivals=ArrivalSpec(
                        rate_per_sec=0.5 * rate, n_requests=300, seed=1
                    ),
                    p99_slo_ns=20.0 * svc_ns,
                ),
                TenantSpec(
                    name="bronze",
                    slo_class="bronze",
                    arrivals=ArrivalSpec(
                        rate_per_sec=0.5 * rate,
                        n_requests=600,
                        seed=2,
                        shape="flash",
                        params=(
                            ("spike_factor", 12.0),
                            ("spike_start_request", 100),
                            ("spike_len_requests", 300),
                        ),
                    ),
                ),
            ),
            topology=TopologySpec(n_shards=1, n_replicas=1, n_cores=1),
            admission=AdmissionSpec(enabled=True, bronze_depth=4),
        )

    def test_shedding_run_series_and_traces(self, keys, monkeypatch):
        spec = self.spec()
        n_total = sum(t.arrivals.n_requests for t in spec.tenants)
        window = (n_total / spec.tenants[0].arrivals.rate_per_sec) * 1e9 / 10
        heap, sealed = run_on_both_queues(
            monkeypatch,
            lambda: simulate_scenario(
                spec,
                [service()],
                keys,
                telemetry=TelemetryConfig(window_ns=window, traces=True),
            ),
        )
        assert_series_equal(heap.telemetry, sealed.telemetry)
        assert heap.traces == sealed.traces
        assert heap.traces
        ts = heap.telemetry
        # Admission control fired, and per-class stats are recorded.
        assert ts.shed > 0
        assert ts.classes == ("bronze", "gold")
        shed_by_class = sum(
            c[3]
            for w in ts.windows
            for c in w.class_stats
            if c[0] == "bronze"
        )
        assert shed_by_class == ts.shed


class FakeMeasurement:
    """Duck-typed stand-in for repro.bench.harness.Measurement."""

    def __init__(self):
        self.index = "X"
        self.config = {}
        self.size_bytes = 1 << 20
        self.counters = counters()


def fake_measurement():
    return FakeMeasurement()


class TestSweepTelemetry:
    def cluster_kwargs(self, keys):
        return dict(
            shard_map=ShardMap.from_keys(keys, 2),
            lookup_keys=request_keys(keys, N_REQ, seed=5),
            rate_per_sec=RATE,
            n_requests=N_REQ,
            seed=5,
            n_replicas=2,
            n_cores=2,
            policy=RouterPolicy(backoff_base_ns=SPAN_NS / 50.0),
            faults=FaultConfig(
                crash_mttf_ns=SPAN_NS / 2.0,
                crash_mttr_ns=SPAN_NS / 10.0,
                seed=11,
            ),
            fault_horizon_ns=1.5 * SPAN_NS,
        )

    def task(self, keys, telemetry=None):
        kw = self.cluster_kwargs(keys)
        return cluster_task(
            [fake_measurement(), fake_measurement()],
            kw["shard_map"],
            kw["lookup_keys"],
            kw["rate_per_sec"],
            kw["n_requests"],
            kw["seed"],
            kw["n_replicas"],
            kw["n_cores"],
            kw["policy"],
            kw["faults"],
            kw["fault_horizon_ns"],
            telemetry=telemetry,
        )

    def test_key_fields_telemetry_invariant_when_off(self, keys):
        off = self.task(keys)
        assert "telemetry" not in off.key_fields()
        on = self.task(keys, telemetry=tel())
        assert "telemetry" in on.key_fields()
        assert cache_key(off) != cache_key(on)
        # The off-key is exactly what it was before telemetry existed:
        # same fields, so cached artifacts stay valid.
        assert cache_key(off) == cache_key(self.task(keys))

    def test_freeze_rejects_traces(self, keys):
        """Tasks refuse traces: records are cache-sized aggregates."""
        assert self.task(keys).telemetry is None
        with pytest.raises(ValueError, match="traces"):
            self.task(keys, telemetry=tel(traces=True))
        with pytest.raises(ValueError, match="traces"):
            open_loop_task(
                fake_measurement(), RATE, N_REQ, 7, 1,
                telemetry=tel(traces=True),
            )

    def test_open_loop_task_with_telemetry(self):
        t = open_loop_task(
            fake_measurement(), RATE, N_REQ, 7, 1, telemetry=tel()
        )
        record = run_sim_tasks([t])[0]
        direct = simulate_open_loop(
            ServiceModel(counters()),
            poisson_arrivals(RATE, N_REQ, 7),
            1,
            telemetry=tel(),
        )
        assert TimeSeries.from_dict(record["telemetry"]) == direct.telemetry

    def test_record_identical_serial_vs_jobs(self, keys):
        t = self.task(keys, telemetry=tel())
        serial = run_sim_tasks([t])[0]
        clear_sim_results()
        pooled = run_sim_tasks([t], jobs=2)[0]
        assert serial == pooled
        assert "telemetry" in serial

    def test_on_and_off_records_agree_outside_telemetry(self, keys):
        on = run_sim_tasks([self.task(keys, telemetry=tel())])[0]
        off = run_sim_tasks([self.task(keys)])[0]
        on_rest = {k: v for k, v in on.items() if k != "telemetry"}
        assert on_rest == off

    @pytest.mark.parametrize(
        "warm_queue,replay_queue", [("event", "fast"), ("fast", "event")]
    )
    def test_cross_engine_cache_replay_with_telemetry(
        self, keys, warm_queue, replay_queue, tmp_path, monkeypatch
    ):
        """A record warmed on one event queue replays with full hits
        and equals a fresh run on the other, series included."""
        cache = MeasurementCache(str(tmp_path))
        warm_built = use_event_queue(monkeypatch, warm_queue)
        warm = run_sim_tasks(
            [self.task(keys, telemetry=tel())], cache=cache
        )[0]
        clear_sim_results()
        cache.reset_stats()
        replay_built = use_event_queue(monkeypatch, replay_queue)
        replayed = run_sim_tasks(
            [self.task(keys, telemetry=tel())], cache=cache
        )[0]
        assert cache.hits == 1 and cache.misses == 0
        assert replayed == warm
        assert TimeSeries.from_dict(
            replayed["telemetry"]
        ) == TimeSeries.from_dict(warm["telemetry"])
        clear_sim_results()
        assert run_sim_tasks([self.task(keys, telemetry=tel())])[0] == warm
        # One of the two simulations really ran on the oracle queue.
        assert warm_built or replay_built
