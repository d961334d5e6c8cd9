"""Differential tests: the event loop's running occupancy counts vs a scan.

``_EventLoop`` keeps ``depth`` (queued plus in-service requests) and
``busy`` (cores in service) as running counts, and every dispatch,
service start, steal, router pick, admission check and autoscale tick
reads them instead of scanning cores and replicas.  The oracle is
``serve_reference.ScanEventLoop``, the loop as it was before: it
recomputes all three by scanning the cores on every read.

* **Same bytes.**  Open loops (Poisson and bursty, 1 to 8 cores), a
  closed loop, a faulted cluster with hedging and a batch window, a
  tenant day with admission control and a cluster under a split, a
  rebuild and autoscaling give identical results on both loops, on both
  event queues.
* **Counts equal the scan.**  ``serve_reference.CheckedEventLoop`` runs
  the same simulations on the product loop and, after every dispatch,
  finish and drain, checks ``depth`` and ``busy`` against a scan of the
  cores.
* **Empty queues.**  ``pop()`` on an empty event queue, the product's
  or the oracle's, returns None; the simulators' loops end on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import bursty_arrivals, poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import (
    SealedEventQueue,
    ServiceModel,
    simulate_closed_loop,
    simulate_open_loop,
)
from repro.serve.faults import FaultConfig
from repro.serve.reconfig import (
    AutoscaleSpec,
    RebuildSpec,
    ReconfigSpec,
    SplitSpec,
)
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    KeySpaceSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
)
from repro.serve.telemetry import TelemetryConfig
from repro.serve.tenancy import simulate_scenario
from serve_reference import EVENT_LOOPS, HeapEventQueue, use_event_loop

N_REQ = 500


def service(instructions=500):
    return ServiceModel(
        PerfCountersF(
            instructions=instructions,
            branch_misses=5.0,
            llc_misses=30.0,
            l1_hits=40.0,
        )
    )


def capacity_per_sec(n_cores):
    """Requests per second ``n_cores`` busy cores of :func:`service` serve."""
    return n_cores / service().service_ns(n_cores) * 1e9


_KEYS = np.unique(
    np.random.default_rng(0).integers(0, 2**40, size=6000, dtype=np.uint64)
)
_RATE = 0.9 * capacity_per_sec(2) * 4
_SPAN_NS = N_REQ / _RATE * 1e9


def _telemetry():
    return TelemetryConfig(window_ns=_SPAN_NS / 8, traces=True)


def _open_loop(shape, n_cores):
    make = poisson_arrivals if shape == "poisson" else bursty_arrivals
    arrivals = make(0.9 * capacity_per_sec(n_cores), N_REQ, 3)
    return simulate_open_loop(
        service(), arrivals, n_cores, telemetry=_telemetry()
    )


def _closed_loop():
    return simulate_closed_loop(
        service(),
        n_clients=7,
        n_requests=N_REQ,
        mean_think_ns=2.0 * service().service_ns(3),
        seed=4,
        n_cores=3,
        telemetry=_telemetry(),
    )


def _cluster(policy, faults=None, reconfig=None):
    return Cluster(
        shard_map=ShardMap.from_keys(_KEYS, 2),
        services=[service(), service(650)],
        n_replicas=2,
        n_cores=2,
        policy=policy,
        faults=faults,
        reconfig=reconfig,
    )


def _faulted_cluster():
    cluster = _cluster(
        RouterPolicy(
            hedge_after_ns=4.0 * service().service_ns(2),
            backoff_base_ns=_SPAN_NS / 50.0,
            backoff_cap_ns=_SPAN_NS / 5.0,
            batch_window_ns=0.5 * service().service_ns(1),
        ),
        faults=FaultConfig(
            crash_mttf_ns=_SPAN_NS / 2.0,
            crash_mttr_ns=_SPAN_NS / 10.0,
            slow_mttf_ns=_SPAN_NS / 2.0,
            slow_mttr_ns=_SPAN_NS / 8.0,
            slow_factor=8.0,
            seed=11,
        ),
    )
    return simulate_cluster(
        cluster,
        poisson_arrivals(_RATE, N_REQ, 5),
        request_keys(_KEYS, N_REQ, 5),
        fault_horizon_ns=_SPAN_NS,
        telemetry=_telemetry(),
    )


def _tenant_day():
    offered = 1.2 * capacity_per_sec(2) * 4
    spec = ScenarioSpec(
        name="day",
        tenants=(
            TenantSpec(
                name="gold",
                slo_class="gold",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.5 * offered, n_requests=N_REQ // 2,
                    seed=101, shape="diurnal",
                ),
                keyspace=KeySpaceSpec(seed=101),
            ),
            TenantSpec(
                name="silver",
                slo_class="silver",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.2 * offered, n_requests=N_REQ // 5,
                    seed=202, shape="bursty",
                ),
                keyspace=KeySpaceSpec(lo_frac=0.5, seed=202),
            ),
            TenantSpec(
                name="bronze",
                slo_class="bronze",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.3 * offered,
                    n_requests=N_REQ - N_REQ // 2 - N_REQ // 5,
                    seed=303, shape="flash",
                ),
                keyspace=KeySpaceSpec(hi_frac=0.5, seed=303),
            ),
        ),
        topology=TopologySpec(n_shards=2, n_replicas=2, n_cores=2),
        admission=AdmissionSpec(
            enabled=True, bronze_depth=3, silver_depth=6
        ),
    )
    return simulate_scenario(
        spec,
        [service(), service(650)],
        _KEYS,
        shard_map=ShardMap.from_keys(_KEYS, 2),
        telemetry=_telemetry(),
    )


def _reconfigured_cluster():
    bounds = ShardMap.from_keys(_KEYS, 2).lower_bounds
    spec = ReconfigSpec(
        splits=(
            SplitSpec(
                at_ns=0.2 * _SPAN_NS,
                shard=0,
                at_key=bounds[0] + (bounds[1] - bounds[0]) // 2,
            ),
        ),
        rebuilds=(
            RebuildSpec(
                at_ns=0.45 * _SPAN_NS,
                shard=1,
                replica=0,
                build_ns=0.2 * _SPAN_NS,
                speedup=1.25,
            ),
        ),
        autoscale=AutoscaleSpec(
            interval_ns=_SPAN_NS / 8,
            up_depth=2,
            down_depth=0,
            min_replicas=2,
            max_replicas=4,
        ),
    )
    return simulate_cluster(
        _cluster(RouterPolicy(), reconfig=spec),
        poisson_arrivals(_RATE, N_REQ, 6),
        request_keys(_KEYS, N_REQ, 6),
        telemetry=_telemetry(),
    )


#: name -> (run, check that the run reached the paths it is here for).
SCENARIOS = {
    **{
        f"open_{shape}_{n}core": (
            lambda shape=shape, n=n: _open_loop(shape, n),
            (lambda r: r.total_steals > 0) if n > 1 else (lambda r: True),
        )
        for shape in ("poisson", "bursty")
        for n in (1, 2, 3, 8)
    },
    "closed": (_closed_loop, lambda r: r.total_steals > 0),
    "cluster_faults_hedge_batch": (
        _faulted_cluster,
        lambda r: r.crashes > 0
        and r.slow_events > 0
        and r.total_hedges > 0
        and r.total_retries > 0,
    ),
    "tenant_day_admission": (_tenant_day, lambda r: r.total_shed > 0),
    "reconfig_split_rebuild_autoscale": (
        _reconfigured_cluster,
        lambda r: r.epoch_count > 1 and r.rebuilds and r.scale_events,
    ),
}


def result_bytes(result) -> str:
    """Every output of a run: records, stats, telemetry and traces."""
    if hasattr(result, "tenants"):
        result = (result.cluster, result.tenants)
    text = repr(result)
    assert " at 0x" not in text  # no object identities in the bytes
    return text


def assert_same_bytes(a: str, b: str) -> None:
    """Fail at the first differing character (a diff of two long reprs
    would take minutes)."""
    if a == b:
        return
    i = next(
        (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
        min(len(a), len(b)),
    )
    pytest.fail(
        f"runs differ at char {i}: ...{a[max(i - 120, 0):i + 60]!r} "
        f"vs ...{b[max(i - 120, 0):i + 60]!r}",
        pytrace=False,
    )


def run_on(monkeypatch, loop: str, run):
    built = use_event_loop(monkeypatch, loop)
    result = run()
    assert built, f"the run never built a {loop} event loop"
    return result, built


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestScanOracle:
    def test_same_bytes_on_both_loops(self, name, monkeypatch, event_queue):
        run, exercised = SCENARIOS[name]
        out = {}
        for loop in EVENT_LOOPS:
            result, _ = run_on(monkeypatch, loop, run)
            assert exercised(result)
            out[loop] = result_bytes(result)
        assert_same_bytes(out["scan"], out["counted"])

    def test_counts_match_a_scan_after_every_event(self, name, monkeypatch):
        run, _ = SCENARIOS[name]
        result, built = run_on(monkeypatch, "checked", run)
        assert sum(loop.checks for loop in built) >= N_REQ
        counted, _ = run_on(monkeypatch, "counted", run)
        assert_same_bytes(result_bytes(result), result_bytes(counted))


@pytest.mark.parametrize("make", [SealedEventQueue, HeapEventQueue])
class TestEmptyPop:
    def test_fresh_queue_pops_none(self, make):
        assert make().pop() is None

    def test_pops_none_after_the_last_event(self, make):
        q = make()
        q.push(2.0, 0, "b")
        q.push(1.0, 0, "a")
        assert [q.pop()[3], q.pop()[3]] == ["a", "b"]
        assert q.pop() is None
        # Late pushes (the sealed queue's side heap) end the same way.
        q.push(3.0, 1, "c")
        assert q.pop()[3] == "c"
        assert q.pop() is None
        assert q.pop() is None
        assert len(q) == 0 and not q

    def test_iter_until_none_drains_in_order(self, make):
        q = make()
        for i, t in enumerate((5.0, 1.0, 3.0)):
            q.push(t, 0, i)
        assert [e[0] for e in iter(q.pop, None)] == [1.0, 3.0, 5.0]
