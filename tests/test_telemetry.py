"""Unit tests for serving telemetry: windows, burn rate, traces, spans.

The serial-vs-jobs and cache-replay byte-identity guarantees live in
``tests/test_telemetry_differential.py``; this file pins the module's
local contracts: config validation, totals telescoping, JSON round
trips, windowed percentiles against a manual recompute, the SRE
burn-rate arithmetic, span rendering, the publish buffer, and the
``serve.latency.p95_ns`` gauge regression.
"""

import json

import pytest

from repro.bench.stats import percentiles
from repro.memsim.counters import PerfCountersF
from repro.obs.metrics import MetricsRegistry
from repro.serve.arrivals import poisson_arrivals
from repro.serve.core import ServiceModel, simulate_open_loop
from repro.serve.metrics import summarize_result
from repro.serve.telemetry import (
    AttemptTrace,
    TelemetryConfig,
    TimeSeries,
    WindowStats,
    burn_rate_report,
    clear_published,
    drain_published,
    publish,
    spans_from_traces,
)


def counters(instructions=50, llc_misses=3.0):
    return PerfCountersF(
        instructions=instructions,
        branch_misses=1.0,
        llc_misses=llc_misses,
        l1_hits=4.0,
    )


def run_open_loop(n=400, rate=2e6, seed=3, n_cores=2, **tel_kwargs):
    service = ServiceModel(counters())
    arrivals = poisson_arrivals(rate, n, seed)
    span_ns = n / rate * 1e9
    cfg = TelemetryConfig(window_ns=span_ns / 8.0, **tel_kwargs)
    return simulate_open_loop(service, arrivals, n_cores, telemetry=cfg)


class TestTelemetryConfig:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_window(self, bad):
        with pytest.raises(ValueError, match="window_ns"):
            TelemetryConfig(window_ns=bad)

    def test_off_by_default(self):
        service = ServiceModel(counters())
        result = simulate_open_loop(
            service, poisson_arrivals(2e6, 100, 0), 2
        )
        assert result.telemetry is None
        assert result.traces is None

    def test_traces_opt_in(self):
        assert run_open_loop().traces is None
        traced = run_open_loop(traces=True)
        assert traced.traces is not None
        assert len(traced.traces) == len(traced.requests)


class TestTimeSeries:
    def test_totals_telescope_to_the_run(self):
        result = run_open_loop()
        ts = result.telemetry
        assert ts.completed == len(result.requests)
        assert ts.failed == 0 and ts.shed == 0
        assert ts.max_queue_depth == result.max_queue_depth
        assert len(ts.windows) >= 8
        assert ts.windows == tuple(sorted(ts.windows, key=lambda w: w.index))

    def test_window_geometry(self):
        ts = run_open_loop().telemetry
        assert ts.window_start_ns(3) == 3 * ts.window_ns
        assert ts.span_ns == len(ts.windows) * ts.window_ns
        # Dense indexing: windows cover 0..n-1 with no holes.
        assert [w.index for w in ts.windows] == list(range(len(ts.windows)))

    def test_json_round_trip_is_lossless(self):
        ts = run_open_loop().telemetry
        clone = TimeSeries.from_json(ts.to_json())
        assert clone == ts
        assert clone.content_key() == ts.content_key()

    def test_content_key_is_pinned(self):
        """Replayed series (and their published keys) hold only while
        this does."""
        ts = TimeSeries(
            window_ns=1e5,
            n_shards=2,
            windows=(
                WindowStats(
                    index=0, completed=3, failed=1, shed=2, retries=1,
                    hedges=1, violations=1, max_queue_depth=4,
                    p50_ns=1200.5, p99_ns=9000.25,
                    shard_completed=(2, 1), shard_failed=(0, 1),
                    class_stats=(("bronze", 1, 0, 2, 0), ("gold", 2, 1, 0, 1)),
                ),
                WindowStats(
                    index=1, shard_completed=(0, 0), shard_failed=(0, 0)
                ),
            ),
        )
        assert ts.content_key() == "3c43d3e6cc44f38f2c74a8d1a95465f54bc89c49"
        assert TimeSeries.from_json(ts.to_json()) == ts

    def test_schema_checked(self):
        d = run_open_loop().telemetry.to_dict()
        d["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            TimeSeries.from_dict(d)
        del d["schema"]
        with pytest.raises(ValueError, match="schema"):
            TimeSeries.from_dict(d)

    def test_content_key_is_stable_and_discriminating(self):
        a = run_open_loop().telemetry
        b = run_open_loop().telemetry
        assert a.content_key() == b.content_key()
        assert len(a.content_key()) == 40
        c = run_open_loop(seed=4).telemetry
        assert c.content_key() != a.content_key()

    def test_windowed_percentiles_match_manual_recompute(self):
        result = run_open_loop(traces=True)
        ts = result.telemetry
        by_window = {}
        for t in result.traces:
            idx = int(t.finish_ns / ts.window_ns)
            by_window.setdefault(idx, []).append(t.finish_ns - t.dispatch_ns)
        for w in ts.windows:
            lats = by_window.get(w.index)
            if lats is None:
                assert w.completed == 0
                assert w.p50_ns is None and w.p99_ns is None
                continue
            assert w.completed == len(lats)
            ps = percentiles(lats, (50.0, 99.0))
            assert w.p50_ns == ps[50.0] and w.p99_ns == ps[99.0]

    def test_slo_violations_counted(self):
        plain = run_open_loop()
        s = summarize_result(plain)
        tight = run_open_loop(slo_p99_ns=s.p50_ns)
        loose = run_open_loop(slo_p99_ns=10.0 * s.p999_ns)
        assert loose.telemetry.violations == 0
        # Roughly half the requests sit above the median.
        assert tight.telemetry.violations >= len(plain.requests) // 4

    def test_shard_availability(self):
        w = WindowStats(
            index=0, completed=3, failed=1,
            shard_completed=(3, 0), shard_failed=(1, 0),
        )
        assert w.shard_availability == (0.75, 1.0)


def series_from_bad_counts(bad_counts, count=100):
    """A synthetic series with ``count`` completions per window."""
    windows = tuple(
        WindowStats(
            index=i,
            completed=count,
            violations=bad,
            shard_completed=(count,),
            shard_failed=(0,),
        )
        for i, bad in enumerate(bad_counts)
    )
    return TimeSeries(window_ns=1e6, n_shards=1, windows=windows)


class TestBurnRate:
    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5])
    def test_rejects_bad_budget_fraction(self, bad):
        with pytest.raises(ValueError, match="budget_fraction"):
            burn_rate_report(series_from_bad_counts([0]), bad)

    def test_no_violations_no_burn(self):
        r = burn_rate_report(series_from_bad_counts([0, 0, 0]), 0.01)
        assert r.total == 300 and r.total_bad == 0
        assert r.consumed == 0.0
        assert r.exhausted_window is None
        assert r.time_to_exhaustion_ns is None
        assert all(w.burn_rate == 0.0 for w in r.windows)
        assert all(w.budget_left == 1.0 for w in r.windows)

    def test_burn_arithmetic(self):
        # Budget = 1% of 400 = 4 bad requests; window 1 burns 2 of them
        # (bad fraction 0.02 over budget fraction 0.01 = burn 2x).
        r = burn_rate_report(series_from_bad_counts([0, 2, 0, 6]), 0.01)
        assert r.total == 400 and r.total_bad == 8
        assert r.windows[1].burn_rate == pytest.approx(2.0)
        assert r.windows[1].budget_left == pytest.approx(0.5)
        assert r.windows[3].burn_rate == pytest.approx(6.0)
        assert r.windows[3].budget_left == pytest.approx(-1.0)
        assert r.exhausted_window == 3
        assert r.consumed == pytest.approx(2.0)
        # Burning at 2x the budget exhausts in half the span.
        assert r.time_to_exhaustion_ns == pytest.approx(
            series_from_bad_counts([0] * 4).span_ns / 2.0
        )

    def test_per_class_accounting(self):
        w = WindowStats(
            index=0,
            completed=20,
            violations=7,
            shard_completed=(20,),
            shard_failed=(0,),
            class_stats=(
                ("bronze", 10, 6, 5, 0),
                ("gold", 10, 1, 0, 0),
            ),
        )
        ts = TimeSeries(window_ns=1e6, n_shards=1, windows=(w,))
        gold = burn_rate_report(ts, 0.5, slo_class="gold")
        assert gold.total == 10 and gold.total_bad == 1
        bronze = burn_rate_report(ts, 0.5, slo_class="bronze")
        assert bronze.total == 10 and bronze.total_bad == 6
        shed = burn_rate_report(
            ts, 0.5, slo_class="bronze", include_shed=True
        )
        assert shed.total == 15 and shed.total_bad == 11
        missing = burn_rate_report(ts, 0.5, slo_class="iron")
        assert missing.total == 0 and missing.consumed == 0.0


class TestSpans:
    def test_open_loop_traces_render_as_request_spans(self):
        result = run_open_loop(n=50, traces=True)
        spans = spans_from_traces(result.traces, label="t")
        parents = [s for s in spans if s["name"] == "request"]
        children = [s for s in spans if s["name"] == "attempt"]
        assert len(parents) == 50 and len(children) == 50
        assert all(s["status"] == "ok" for s in spans)
        by_sid = {s["sid"]: s for s in spans}
        for child in children:
            parent = by_sid[child["parent"]]
            assert parent["path"] == "request"
            assert child["path"] == "request/attempt"
            assert child["start_ns"] >= parent["start_ns"]

    def test_failed_attempts_are_error_spans(self):
        traces = (
            AttemptTrace(
                rid=0, attempt=1, shard=0, replica=0, core=0,
                cause="arrival", dispatch_ns=0.0, start_ns=1.0,
                finish_ns=5.0, status="cancelled",
            ),
            AttemptTrace(
                rid=0, attempt=2, shard=0, replica=1, core=0,
                cause="retry", dispatch_ns=5.0, start_ns=6.0,
                finish_ns=9.0, status="completed",
            ),
        )
        spans = spans_from_traces(traces)
        parent = next(s for s in spans if s["name"] == "request")
        assert parent["status"] == "ok"  # the retry completed
        statuses = [
            s["status"] for s in spans if s["name"] == "attempt"
        ]
        assert statuses == ["error", "ok"]

    def test_attempt_trace_dict_round_trip(self):
        t = AttemptTrace(
            rid=7, attempt=2, shard=1, replica=0, core=3,
            cause="hedge", dispatch_ns=10.0, start_ns=11.5,
            finish_ns=20.25, status="completed",
        )
        assert AttemptTrace.from_dict(t.to_dict()) == t
        json.dumps(t.to_dict())  # JSON-able as written


class TestPublishBuffer:
    @pytest.fixture(autouse=True)
    def _clean(self):
        clear_published()
        yield
        clear_published()

    def test_publish_and_drain(self):
        result = run_open_loop(n=30, traces=True)
        publish("a/b", result.telemetry, traces=result.traces)
        records, spans = drain_published()
        assert [r["label"] for r in records] == ["a/b"]
        assert records[0]["content_key"] == result.telemetry.content_key()
        assert (
            TimeSeries.from_dict(records[0]["series"]) == result.telemetry
        )
        assert spans and all(s["attrs"]["label"] == "a/b" for s in spans)
        # Drain empties the buffers.
        assert drain_published() == ([], [])


class TestP95Gauge:
    def test_to_metrics_publishes_p95(self):
        summary = summarize_result(run_open_loop())
        reg = MetricsRegistry()
        summary.to_metrics(registry=reg)
        names = reg.names()
        assert "serve.latency.p95_ns" in names
        snap = reg.snapshot()
        assert snap["gauges"]["serve.latency.p95_ns"] == summary.p95_ns
        # The neighbours it was missing between.
        assert "serve.latency.p50_ns" in names
        assert "serve.latency.p99_ns" in names


class TestTopologyGauges:
    """``ClusterResult.to_metrics`` exports the autoscaler's inputs and
    outputs: shard/replica-count gauges plus an epoch counter."""

    def run_cluster(self, reconfig=None):
        from repro.serve.cluster import Cluster, simulate_cluster
        from repro.serve.router import RouterPolicy, ShardMap

        cluster = Cluster(
            shard_map=ShardMap([0, 1000]),
            services=[ServiceModel(counters()) for _ in range(2)],
            n_replicas=2,
            n_cores=2,
            policy=RouterPolicy(),
            faults=None,
            reconfig=reconfig,
        )
        arrivals = poisson_arrivals(2e6, 200, 3)
        keys = [(i * 13) % 2000 for i in range(200)]
        return simulate_cluster(cluster, arrivals, keys)

    def test_static_run_exports_topology(self):
        result = self.run_cluster()
        reg = MetricsRegistry()
        result.to_metrics(registry=reg)
        names = reg.names()
        assert "serve.cluster.shards" in names
        assert "serve.cluster.replicas" in names
        snap = reg.snapshot()
        assert snap["gauges"]["serve.cluster.shards"] == 2.0
        assert snap["gauges"]["serve.cluster.replicas"] == 4.0
        assert snap["counters"]["serve.cluster.epochs"] == 1

    def test_reconfigured_run_exports_final_topology(self):
        from repro.serve.reconfig import ReconfigSpec, SplitSpec

        span_ns = 200 / 2e6 * 1e9
        result = self.run_cluster(
            ReconfigSpec(
                splits=(
                    SplitSpec(at_ns=0.3 * span_ns, shard=0, at_key=500),
                )
            )
        )
        reg = MetricsRegistry()
        result.to_metrics(registry=reg)
        snap = reg.snapshot()
        assert snap["gauges"]["serve.cluster.shards"] == 3.0
        assert snap["gauges"]["serve.cluster.replicas"] == 6.0
        assert snap["counters"]["serve.cluster.epochs"] == 2
