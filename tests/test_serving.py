"""Unit tests for the repro.serve subsystem (arrivals, core, selector)."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.counters import PerfCountersF
from repro.memsim.costmodel import XEON_GOLD_6230
from repro.serve import (
    LatencySummary,
    MachineModel,
    ServiceModel,
    bursty_arrivals,
    poisson_arrivals,
    select_under_slo,
    service_time_ns,
    simulate_closed_loop,
    simulate_open_loop,
    summarize,
    summarize_result,
    think_times_ns,
    throughput,
)
from repro.serve.core import SealedEventQueue


def counters(instructions=50, llc_misses=3.0, branch_misses=1.0):
    return PerfCountersF(
        instructions=instructions,
        branch_misses=branch_misses,
        llc_misses=llc_misses,
        l1_hits=4.0,
    )


class FakeMeasurement:
    """Duck-typed stand-in for repro.bench.harness.Measurement."""

    def __init__(self, name="X", size_bytes=1 << 20, **counter_kwargs):
        self.index = name
        self.config = {}
        self.size_bytes = size_bytes
        self.counters = counters(**counter_kwargs)
        self.latency_ns = XEON_GOLD_6230.latency_ns(self.counters)


class TestArrivals:
    def test_poisson_deterministic_and_sorted(self):
        a = poisson_arrivals(1e6, 500, seed=7)
        b = poisson_arrivals(1e6, 500, seed=7)
        assert a == b
        assert a == sorted(a)
        assert poisson_arrivals(1e6, 500, seed=8) != a

    def test_poisson_rate_scaling_is_exact(self):
        """Doubling the rate halves every timestamp (same gap sequence)."""
        slow = poisson_arrivals(1e6, 200, seed=3)
        fast = poisson_arrivals(2e6, 200, seed=3)
        for s, f in zip(slow, fast):
            assert f == pytest.approx(s / 2.0, rel=1e-12)

    def test_poisson_mean_gap_near_rate(self):
        a = poisson_arrivals(1e6, 5_000, seed=0)
        mean_gap = a[-1] / len(a)
        assert mean_gap == pytest.approx(1e3, rel=0.1)  # 1e9/1e6 ns

    def test_bursty_mean_rate_preserved(self):
        a = bursty_arrivals(1e6, 5_000, seed=0)
        mean_gap = a[-1] / len(a)
        assert mean_gap == pytest.approx(1e3, rel=0.15)

    def test_bursty_is_burstier_than_poisson(self):
        """Squared coefficient of variation of gaps exceeds Poisson's."""
        import statistics

        def cv2(times):
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = statistics.fmean(gaps)
            return statistics.pvariance(gaps) / (mean * mean)

        p = poisson_arrivals(1e6, 4_000, seed=1)
        b = bursty_arrivals(1e6, 4_000, seed=1)
        assert cv2(b) > cv2(p)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10, seed=0)
        with pytest.raises(ValueError):
            poisson_arrivals(1e6, 0, seed=0)
        with pytest.raises(ValueError):
            bursty_arrivals(1e6, 10, seed=0, burst_factor=1.0)
        with pytest.raises(ValueError):
            bursty_arrivals(1e6, 10, seed=0, burst_fraction=1.0)
        with pytest.raises(ValueError):
            think_times_ns(-1.0, 10, seed=0)

    def test_zero_think_time(self):
        assert think_times_ns(0.0, 5, seed=0) == [0.0] * 5


class TestContentionServiceTime:
    def test_single_core_equals_uncontended_latency(self):
        c = counters(llc_misses=0.0)
        lat = XEON_GOLD_6230.latency_ns(c)
        assert service_time_ns(c, 1) == pytest.approx(lat)

    def test_increasing_in_busy_cores(self):
        c = counters(llc_misses=4.0)
        times = [service_time_ns(c, k) for k in (1, 2, 4, 8, 16)]
        assert times == sorted(times)
        assert times[-1] > times[0]

    def test_consistent_with_figure16_steady_state(self):
        """k cores at service time s(k) sustain throughput(m, k)."""
        m = FakeMeasurement()
        machine = MachineModel()
        for k in (1, 4, 20):
            s_ns = service_time_ns(m.counters, k, machine=machine)
            steady = k / (s_ns * 1e-9)
            expected = throughput(m, k, machine=machine).lookups_per_sec
            assert steady == pytest.approx(expected, rel=1e-9)

    def test_zero_misses_no_inflation(self):
        c = counters(llc_misses=0.0)
        assert service_time_ns(c, 1) == service_time_ns(c, 16)

    def test_requires_positive_busy_cores(self):
        with pytest.raises(ValueError):
            service_time_ns(counters(), 0)


class TestEventLoop:
    def test_unloaded_requests_see_pure_service_time(self):
        """Arrivals far apart: no queueing, latency == 1-core service."""
        svc = ServiceModel(counters())
        base = svc.service_ns(1)
        arrivals = [i * 100 * base for i in range(20)]
        result = simulate_open_loop(svc, arrivals, n_cores=2)
        for lat in result.latencies_ns:
            assert lat == pytest.approx(base)
        assert result.total_steals == 0

    def test_single_core_fifo_wait(self):
        """Two simultaneous arrivals on one core: second waits for first."""
        svc = ServiceModel(counters(llc_misses=0.0))
        s = svc.service_ns(1)
        result = simulate_open_loop(svc, [0.0, 0.0], n_cores=1)
        first, second = result.requests
        assert first.latency_ns == pytest.approx(s)
        assert second.start_ns == pytest.approx(first.finish_ns)
        assert second.latency_ns == pytest.approx(2 * s)

    @given(
        gaps=st.lists(
            st.integers(min_value=0, max_value=8).map(lambda g: 64.0 * g),
            min_size=1,
            max_size=150,
        ),
        scale=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_core_matches_fifo_recursion(self, gaps, scale):
        """One core never steals and never sees contention, so service
        starts at ``max(arrival, previous finish)`` and takes the
        constant 1-core time.  Gaps and service time share a 64 ns grid,
        so arrivals often land exactly on finish times (the tie rule:
        the arrival queues, then starts at that same instant)."""
        svc = ServiceModel(PerfCountersF(instructions=64.0 * scale))
        s = svc.service_ns(1)
        arrivals, t = [], 0.0
        for g in gaps:
            t += g
            arrivals.append(t)
        result = simulate_open_loop(svc, arrivals, n_cores=1)
        finish = 0.0
        for a, req in zip(arrivals, result.requests):
            start = max(a, finish)
            finish = start + s
            assert (req.arrival_ns, req.start_ns, req.finish_ns, req.core) == (
                a, start, finish, 0
            )
        assert result.makespan_ns == finish
        assert result.total_steals == 0

    def test_simultaneous_arrivals_spread_across_cores(self):
        svc = ServiceModel(counters())
        result = simulate_open_loop(svc, [0.0, 0.0, 0.0, 0.0], n_cores=4)
        assert sorted(r.core for r in result.requests) == [0, 1, 2, 3]

    def test_contention_slows_concurrent_service(self):
        svc = ServiceModel(counters(llc_misses=6.0))
        alone = simulate_open_loop(svc, [0.0], n_cores=4)
        together = simulate_open_loop(svc, [0.0] * 4, n_cores=4)
        assert max(together.latencies_ns) > alone.latencies_ns[0]

    def test_results_in_request_order(self):
        svc = ServiceModel(counters())
        arrivals = poisson_arrivals(5e6, 300, seed=2)
        result = simulate_open_loop(svc, arrivals, n_cores=2)
        assert [r.rid for r in result.requests] == list(range(300))

    def test_deterministic_across_runs(self):
        svc = ServiceModel(counters())
        arrivals = poisson_arrivals(8e6, 500, seed=4)
        a = simulate_open_loop(svc, arrivals, n_cores=3)
        b = simulate_open_loop(svc, arrivals, n_cores=3)
        assert a.latencies_ns == b.latencies_ns
        assert [r.core for r in a.requests] == [r.core for r in b.requests]

    def test_work_stealing_occurs_at_moderate_load(self):
        """Steals need a queue imbalance: one core idle while another has
        a backlog -- which happens at moderate load, not overload."""
        m = FakeMeasurement(llc_misses=5.0)
        cap = throughput(m, 4).lookups_per_sec
        svc = ServiceModel(m.counters)
        arrivals = poisson_arrivals(0.8 * cap, 800, seed=5)
        result = simulate_open_loop(svc, arrivals, n_cores=4)
        assert result.total_steals > 0

    def test_closed_loop_saturates_cores(self):
        """Zero think time, clients > cores: throughput ~ steady state."""
        m = FakeMeasurement()
        svc = ServiceModel(m.counters)
        n_cores = 4
        result = simulate_closed_loop(
            svc, n_clients=8, n_requests=2_000, mean_think_ns=0.0,
            seed=0, n_cores=n_cores,
        )
        expected = throughput(m, n_cores).lookups_per_sec
        assert result.throughput_per_sec == pytest.approx(expected, rel=0.05)

    def test_closed_loop_issues_exactly_n_requests(self):
        svc = ServiceModel(counters())
        result = simulate_closed_loop(
            svc, n_clients=3, n_requests=100, mean_think_ns=200.0,
            seed=1, n_cores=2,
        )
        assert len(result.requests) == 100

    def test_invalid_core_and_client_counts(self):
        svc = ServiceModel(counters())
        with pytest.raises(ValueError):
            simulate_open_loop(svc, [0.0], n_cores=0)
        with pytest.raises(ValueError):
            simulate_closed_loop(
                svc, n_clients=0, n_requests=5, mean_think_ns=0.0,
                seed=0, n_cores=1,
            )


class TestMetrics:
    def test_summary_of_known_trace(self):
        lat = [float(i) for i in range(1, 101)]  # 1..100
        s = summarize(lat, throughput_per_sec=123.0)
        assert s.n == 100
        assert s.mean_ns == pytest.approx(50.5)
        assert s.p50_ns == pytest.approx(50.5)
        assert s.p99_ns == pytest.approx(99.01)
        assert s.max_ns == 100.0
        assert s.throughput_per_sec == 123.0
        assert s.meets(100.0) and not s.meets(50.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summarize_result_matches_summarize(self):
        svc = ServiceModel(counters())
        result = simulate_open_loop(
            svc, poisson_arrivals(5e6, 200, seed=9), n_cores=2
        )
        assert summarize_result(result) == summarize(
            result.latencies_ns, result.throughput_per_sec
        )


class TestSelector:
    def fleet(self):
        # Cheap-but-slow, expensive-but-fast, and mid.
        return [
            FakeMeasurement("Slow", size_bytes=1_000, llc_misses=9.0,
                            instructions=300),
            FakeMeasurement("Fast", size_bytes=1_000_000, llc_misses=0.5,
                            instructions=20),
            FakeMeasurement("Mid", size_bytes=10_000, llc_misses=2.0,
                            instructions=60),
        ]

    def test_picks_cheapest_meeting_slo(self):
        fleet = self.fleet()
        rate = 0.5 * throughput(fleet[2], 4).lookups_per_sec
        slo = 3.0 * fleet[2].latency_ns
        sel = select_under_slo(
            fleet, offered_per_sec=rate, p99_slo_ns=slo,
            n_requests=800, seed=0, n_cores=4,
        )
        assert sel.chosen is not None
        assert sel.chosen.index == "Mid"
        eligible = {c.index for c in sel.eligible()}
        assert "Fast" in eligible  # meets SLO but costs more memory

    def test_memory_budget_excludes_large_indexes(self):
        fleet = self.fleet()
        rate = 0.3 * throughput(fleet[1], 4).lookups_per_sec
        sel = select_under_slo(
            fleet, offered_per_sec=rate,
            p99_slo_ns=1.5 * fleet[1].latency_ns,
            memory_budget_bytes=100_000,
            n_requests=800, seed=0, n_cores=4,
        )
        assert all(c.index != "Fast" for c in sel.eligible())

    def test_impossible_slo_selects_none(self):
        fleet = self.fleet()
        sel = select_under_slo(
            fleet, offered_per_sec=1e6, p99_slo_ns=1.0,
            n_requests=400, seed=0, n_cores=4,
        )
        assert sel.chosen is None
        assert sel.eligible() == []

    def test_deterministic(self):
        fleet = self.fleet()
        kwargs = dict(
            offered_per_sec=2e6, p99_slo_ns=2_000.0,
            n_requests=600, seed=3, n_cores=4,
        )
        a = select_under_slo(fleet, **kwargs)
        b = select_under_slo(fleet, **kwargs)
        assert a.chosen == b.chosen
        assert a.candidates == b.candidates

    def test_boundary_semantics(self):
        """A candidate exactly at the p99 SLO and exactly at the memory
        budget is eligible: both checks are inclusive (<=).

        This pins the contract documented on ``Selection._fits`` -- an
        SLO of "p99 within 1 ms" admits 1 ms, and a budget admits a
        footprint that exactly fills it.  Regression guard against
        accidentally tightening either comparison to strict inequality.
        """
        from repro.serve.metrics import LatencySummary
        from repro.serve.selector import Candidate, selection_from_candidates

        p99 = 750.0
        size = 4_096
        summary = LatencySummary(
            n=100, mean_ns=400.0, p50_ns=380.0, p95_ns=600.0,
            p99_ns=p99, p999_ns=900.0, max_ns=1_000.0,
            throughput_per_sec=1e6,
        )
        at_boundary = Candidate(
            index="Edge", config={}, size_bytes=size,
            saturation_per_sec=1e6, summary=summary,
        )
        sel = selection_from_candidates(
            [at_boundary],
            offered_per_sec=1e6,
            p99_slo_ns=p99,  # exactly at the SLO
            memory_budget_bytes=float(size),  # exactly at the budget
        )
        assert sel.eligible() == [at_boundary]
        assert sel.chosen == at_boundary
        # One ulp past either boundary is ineligible.
        import math

        over_slo = selection_from_candidates(
            [at_boundary], 1e6, math.nextafter(p99, 0.0), float(size)
        )
        assert over_slo.chosen is None
        over_budget = selection_from_candidates(
            [at_boundary], 1e6, p99, math.nextafter(size, 0.0)
        )
        assert over_budget.chosen is None

    def test_candidate_summaries_are_latency_summaries(self):
        fleet = self.fleet()
        sel = select_under_slo(
            fleet, offered_per_sec=1e6, p99_slo_ns=1e9,
            n_requests=300, seed=0, n_cores=2,
        )
        for c in sel.candidates:
            assert isinstance(c.summary, LatencySummary)
            assert c.saturation_per_sec > 0


#: (time, kind) events; kinds 0-2 mirror arrival/finish/fault ordering.
queue_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=0,
    max_size=200,
)


class TestSealedEventQueue:
    """The event loop's queue against its oracle, a plain ``heapq``."""

    @given(up_front=queue_events, late=queue_events)
    @settings(max_examples=100, deadline=None)
    def test_matches_heapq_order(self, up_front, late):
        """Batch-sorted up-front events interleaved with a side heap of
        late pushes pop in exactly heapq's (time, kind, seq) order."""
        sealed = SealedEventQueue()
        reference: list = []
        seq = 0
        for t, kind in up_front:
            sealed.push(t, kind, payload=("p", seq))
            heapq.heappush(reference, (t, kind, seq, ("p", seq)))
            seq += 1
        popped = []
        expected = []
        # Drain half, then push the late events mid-stream; the
        # reference heap follows the same pop/push schedule.
        drain_first = len(up_front) // 2
        for _ in range(drain_first):
            popped.append(sealed.pop())
            expected.append(heapq.heappop(reference))
        for t, kind in late:
            sealed.push(t, kind, payload=("p", seq))
            heapq.heappush(reference, (t, kind, seq, ("p", seq)))
            seq += 1
        while sealed:
            popped.append(sealed.pop())
            expected.append(heapq.heappop(reference))
        assert popped == expected
        assert not reference
        assert len(sealed) == 0 and not sealed

    def test_len_and_bool(self):
        q = SealedEventQueue()
        assert not q and len(q) == 0
        q.push(1.0, 0, None)
        q.push(0.5, 1, None)
        assert q and len(q) == 2
        assert q.pop()[0] == 0.5
        assert len(q) == 1
