"""Tail-latency accounting for simulation runs.

A :class:`LatencySummary` condenses one run's sojourn-time trace into the
numbers an SLO speaks: p50/p95/p99/p99.9 (exact-interpolation percentiles
from :mod:`repro.bench.stats`), mean, max, and achieved throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.records import Record


@dataclass(frozen=True)
class LatencySummary(Record):
    """Percentile view of one serving run (all latencies in ns).

    Its JSON form (simulation records, the result cache) round-trips
    exactly: floats keep their shortest repr, so a cached summary is
    byte-identical to a recomputed one.
    """

    n: int
    mean_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: float
    throughput_per_sec: float

    def meets(self, p99_slo_ns: float) -> bool:
        return self.p99_ns <= p99_slo_ns

    def to_metrics(
        self,
        registry=None,
        prefix: str = "serve",
        slo_p99_ns: Optional[float] = None,
        result=None,
    ) -> None:
        """Publish this summary into an obs metrics registry.

        Serving numbers then land in the same ``metrics.json`` snapshot
        as harness and runner metrics (``repro.obs.sink.write_run``).
        ``slo_p99_ns`` additionally counts runs and SLO violations;
        ``result`` (a :class:`~repro.serve.core.ServingResult` or an
        open-loop run record) adds queue-depth maxima and work-stealing
        counts.  Gauges take the
        max over repeated calls, so a sweep reports its worst case.
        """
        from repro.obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        reg.gauge(f"{prefix}.latency.p50_ns").set_max(self.p50_ns)
        reg.gauge(f"{prefix}.latency.p95_ns").set_max(self.p95_ns)
        reg.gauge(f"{prefix}.latency.p99_ns").set_max(self.p99_ns)
        reg.gauge(f"{prefix}.latency.p999_ns").set_max(self.p999_ns)
        reg.gauge(f"{prefix}.latency.max_ns").set_max(self.max_ns)
        reg.counter(f"{prefix}.requests").inc(self.n)
        if slo_p99_ns is not None:
            reg.counter(f"{prefix}.slo.runs").inc()
            if not self.meets(slo_p99_ns):
                reg.counter(f"{prefix}.slo.violations").inc()
        if result is not None:
            reg.gauge(f"{prefix}.queue_depth.max").set_max(
                result.max_queue_depth
            )
            reg.counter(f"{prefix}.steals").inc(result.total_steals)


def summarize(
    latencies_ns: Sequence[float], throughput_per_sec: float = 0.0
) -> LatencySummary:
    # Imported here, not at module level: repro.bench pulls in the
    # experiment drivers (including ext_serving, which imports this
    # module), so a top-level import would be circular.
    from repro.bench.stats import percentiles

    if not latencies_ns:
        raise ValueError("cannot summarize an empty latency trace")
    ps = percentiles(latencies_ns, (50.0, 95.0, 99.0, 99.9))
    return LatencySummary(
        n=len(latencies_ns),
        mean_ns=sum(latencies_ns) / len(latencies_ns),
        p50_ns=ps[50.0],
        p95_ns=ps[95.0],
        p99_ns=ps[99.0],
        p999_ns=ps[99.9],
        max_ns=max(latencies_ns),
        throughput_per_sec=throughput_per_sec,
    )


def summarize_result(result) -> LatencySummary:
    """Summary of a :class:`repro.serve.core.ServingResult`."""
    return summarize(result.latencies_ns, result.throughput_per_sec)
