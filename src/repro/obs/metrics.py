"""Process-local metrics registry: named counters, gauges, histograms.

One flat registry per process collects the operational numbers that are
not per-lookup measurements: measurement-cache hits and rejections,
pool queue depth, serving SLO stats.  Everything is a plain Python
scalar update -- cheap enough to leave on unconditionally at cell/run
granularity (never called per simulated event) -- and
:meth:`MetricsRegistry.snapshot` serializes the whole registry to
JSON-able dicts for the run sink.

Naming convention: dotted lowercase paths, ``<subsystem>.<object>.<what>``
(``bench.cache.rejects``, ``serve.slo.violations``).  Units go in the
name suffix where ambiguous (``_ns``, ``_bytes``).  See
``docs/observability.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written value, with convenience high/low-water helpers."""

    __slots__ = ("value", "_written")

    def __init__(self) -> None:
        self.value: float = 0.0
        self._written = False

    def set(self, value: float) -> None:
        self.value = value
        self._written = True

    def set_max(self, value: float) -> None:
        if not self._written or value > self.value:
            self.set(value)

    def set_min(self, value: float) -> None:
        """Low-water mark (e.g. worst availability over a sweep)."""
        if not self._written or value < self.value:
            self.set(value)


class Histogram:
    """Power-of-two bucketed distribution of non-negative observations.

    Tracks count/sum/min/max exactly plus a coarse shape: bucket ``i``
    counts observations in ``[2**(i-1), 2**i)`` (bucket 0 is ``[0, 1)``).
    Enough to see load imbalance and tail behaviour without reservoirs.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = max(int(value), 0).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Flat name -> instrument mapping; instruments create on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    def names(self) -> List[str]:
        return sorted(
            list(self._counters)
            + list(self._gauges)
            + list(self._histograms)
        )

    def snapshot(self) -> dict:
        """JSON-able view of every instrument (stable key order)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min,
                    "max": h.max,
                    "mean": h.mean,
                    "buckets": {str(k): v for k, v in sorted(h.buckets.items())},
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another process's snapshot into this registry.

        Counters add; gauges keep the maximum (the interesting direction
        for queue depths and high-water marks) except low-water gauges --
        the ``.min`` name suffix convention -- which keep the minimum;
        histograms merge count/sum/min/max/buckets exactly.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            if name.endswith(".min"):
                self.gauge(name).set_min(value)
            else:
                self.gauge(name).set_max(value)
        for name, h in snap.get("histograms", {}).items():
            mine = self.histogram(name)
            mine.count += h["count"]
            mine.total += h["sum"]
            for bound in ("min", "max"):
                theirs = h.get(bound)
                if theirs is None:
                    continue
                ours = getattr(mine, bound)
                better = (
                    theirs
                    if ours is None
                    else (min(ours, theirs) if bound == "min" else max(ours, theirs))
                )
                setattr(mine, bound, better)
            for bucket, count in h.get("buckets", {}).items():
                key = int(bucket)
                mine.buckets[key] = mine.buckets.get(key, 0) + count

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry every subsystem reports into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
