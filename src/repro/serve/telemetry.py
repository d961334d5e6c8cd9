"""Deterministic in-run telemetry for the serving simulators.

End-of-run summaries (:class:`~repro.serve.metrics.LatencySummary`,
:class:`~repro.serve.cluster.ClusterResult`) compress a whole run into
one row, which hides exactly the stories this benchmark is about: a
flash crowd ramping, a fault window draining a shard, a shed storm
protecting gold tail latency.  This module adds the time axis back as
three layers, all of them pure data:

* **Windowed time-series.**  A :class:`TelemetryConfig` with a tumbling
  sim-time window (``window_ns``) is passed to
  :func:`~repro.serve.core.simulate_open_loop` /
  :func:`~repro.serve.cluster.simulate_cluster` /
  :func:`~repro.serve.tenancy.simulate_scenario`.  The simulators feed a
  :class:`TelemetryCollector` whose hooks observe but never mutate the
  simulation; the result carries a frozen :class:`TimeSeries` of
  per-window :class:`WindowStats` -- completed/failed/shed counts,
  retries, hedges, SLO violations, max queue depth at dispatch instants,
  exact p50/p99 (:func:`repro.bench.stats.percentiles`), and per-shard
  completion/failure splits.
* **Request traces.**  Opt-in (``traces=True``): one
  :class:`AttemptTrace` per dispatch attempt (shard, replica, core,
  cause -- arrival / retry / hedge -- and outcome), convertible to
  ``repro.obs`` span dicts (:func:`spans_from_traces`) so the ``summary``
  and ``timeline`` CLIs render them like any other span stream.
* **SLO burn rate.**  :func:`burn_rate_report` is a pure function of a
  :class:`TimeSeries`: per-window error-budget burn, cumulative budget
  consumed, and time-to-exhaustion, per tenant class or cluster-wide.

Determinism contract: telemetry is identical serial vs ``--jobs N``
(the series rides the task records of :mod:`repro.serve.sweep`).
With ``telemetry=None`` every hook site is a single ``is not None``
check, results are bit-for-bit what they were, and no task cache key
changes (``key_fields`` omits the telemetry entry entirely).

Window semantics: window ``i`` covers sim time ``[i * window_ns,
(i + 1) * window_ns)``; an event at time ``t`` lands in window
``int(t / window_ns)``.  Completions (and their latencies, violations)
bin by *finish* time; sheds by arrival time; retries/hedges/failures by
the instant they were decided; queue depth is sampled at dispatch
instants, exactly the quantity behind ``max_queue_depth``.  Windows are
dense from 0 through the last window containing any event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Bump when the TimeSeries/AttemptTrace record layout changes meaning.
TELEMETRY_SCHEMA_VERSION = 1

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "canonical_json",
    "content_hash",
    "TelemetryConfig",
    "WindowStats",
    "TimeSeries",
    "AttemptTrace",
    "TelemetryCollector",
    "BurnWindow",
    "BurnRateReport",
    "burn_rate_report",
    "spans_from_traces",
    "publish",
    "drain_published",
    "clear_published",
]


def canonical_json(payload: dict) -> str:
    """Sorted-key, no-whitespace JSON: one byte string per value.

    The serving stack's single canonical form -- scenario specs and
    telemetry series hash the same encoding
    (:mod:`repro.serve.scenario` aliases these helpers).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: dict) -> str:
    """sha256 of the canonical JSON, truncated to 40 hex chars."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:40]


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect during a simulation run.

    ``window_ns`` is the tumbling-window width on the simulation clock.
    ``slo_p99_ns``, when set, counts per-window SLO violations
    (completions whose sojourn exceeds it); the tenancy layer overrides
    it per request with each tenant's own ``p99_slo_ns``.  ``traces``
    additionally records one :class:`AttemptTrace` per dispatch attempt
    (memory scales with attempts, hence opt-in).
    """

    window_ns: float
    slo_p99_ns: Optional[float] = None
    traces: bool = False

    def __post_init__(self):
        if not self.window_ns > 0.0:
            raise ValueError(
                f"window_ns must be positive, got {self.window_ns}"
            )


@dataclass(frozen=True)
class WindowStats:
    """Aggregates of one tumbling window (see module doc for binning).

    ``class_stats`` is the per-SLO-class split the burn-rate math reads:
    sorted ``(class, completed, violations, shed, failed)`` tuples,
    present only when the simulator stamps classes (the tenancy layer).
    """

    index: int
    completed: int = 0
    failed: int = 0
    shed: int = 0
    retries: int = 0
    hedges: int = 0
    violations: int = 0
    max_queue_depth: int = 0
    p50_ns: Optional[float] = None
    p99_ns: Optional[float] = None
    shard_completed: Tuple[int, ...] = ()
    shard_failed: Tuple[int, ...] = ()
    class_stats: Tuple[Tuple[str, int, int, int, int], ...] = ()

    @property
    def shard_availability(self) -> Tuple[float, ...]:
        """Per-shard completed / (completed + failed); 1.0 when idle."""
        return tuple(
            c / (c + f) if (c + f) else 1.0
            for c, f in zip(self.shard_completed, self.shard_failed)
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "retries": self.retries,
            "hedges": self.hedges,
            "violations": self.violations,
            "max_queue_depth": self.max_queue_depth,
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
            "shard_completed": list(self.shard_completed),
            "shard_failed": list(self.shard_failed),
            "class_stats": [list(c) for c in self.class_stats],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WindowStats":
        return cls(
            index=int(d["index"]),
            completed=int(d["completed"]),
            failed=int(d["failed"]),
            shed=int(d["shed"]),
            retries=int(d["retries"]),
            hedges=int(d["hedges"]),
            violations=int(d["violations"]),
            max_queue_depth=int(d["max_queue_depth"]),
            p50_ns=None if d["p50_ns"] is None else float(d["p50_ns"]),
            p99_ns=None if d["p99_ns"] is None else float(d["p99_ns"]),
            shard_completed=tuple(int(x) for x in d["shard_completed"]),
            shard_failed=tuple(int(x) for x in d["shard_failed"]),
            class_stats=tuple(
                (str(c[0]), int(c[1]), int(c[2]), int(c[3]), int(c[4]))
                for c in d["class_stats"]
            ),
        )


@dataclass(frozen=True)
class TimeSeries:
    """The frozen windowed time-series artifact of one simulation run.

    JSON round-trips exactly (floats keep shortest-repr identity), so a
    series replayed from a sweep record or ``timeseries.jsonl`` is
    byte-identical to the freshly collected one; :meth:`content_key`
    hashes the canonical JSON, so equal series share a key.
    """

    window_ns: float
    n_shards: int
    windows: Tuple[WindowStats, ...]

    def window_start_ns(self, index: int) -> float:
        return index * self.window_ns

    @property
    def span_ns(self) -> float:
        """Sim time covered by the dense window range."""
        return len(self.windows) * self.window_ns

    @property
    def completed(self) -> int:
        return sum(w.completed for w in self.windows)

    @property
    def failed(self) -> int:
        return sum(w.failed for w in self.windows)

    @property
    def shed(self) -> int:
        return sum(w.shed for w in self.windows)

    @property
    def retries(self) -> int:
        return sum(w.retries for w in self.windows)

    @property
    def hedges(self) -> int:
        return sum(w.hedges for w in self.windows)

    @property
    def violations(self) -> int:
        return sum(w.violations for w in self.windows)

    @property
    def max_queue_depth(self) -> int:
        return max((w.max_queue_depth for w in self.windows), default=0)

    @property
    def classes(self) -> Tuple[str, ...]:
        """Every SLO class that appears in any window, sorted."""
        names = {c[0] for w in self.windows for c in w.class_stats}
        return tuple(sorted(names))

    def to_dict(self) -> dict:
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "window_ns": self.window_ns,
            "n_shards": self.n_shards,
            "windows": [w.to_dict() for w in self.windows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TimeSeries":
        return cls(
            window_ns=float(d["window_ns"]),
            n_shards=int(d["n_shards"]),
            windows=tuple(
                WindowStats.from_dict(w) for w in d["windows"]
            ),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "TimeSeries":
        return cls.from_dict(json.loads(text))

    def content_key(self) -> str:
        """Stable content hash of the canonical JSON form."""
        return content_hash(self.to_dict())


@dataclass(frozen=True)
class AttemptTrace:
    """One dispatch attempt of one request, as pure data.

    ``attempt`` is 1-based; ``cause`` is ``"arrival"`` / ``"retry"`` /
    ``"hedge"``; ``status`` is ``"completed"`` (this attempt won),
    ``"absorbed"`` (finished after a hedged twin already won or the
    request had failed), ``"cancelled"`` (in service when its replica
    crashed) or ``"lost"`` (queued at crash time, never started).
    ``start_ns`` is -1.0 for attempts that never reached a core.
    """

    rid: int
    attempt: int
    shard: int
    replica: int
    core: int
    cause: str
    dispatch_ns: float
    start_ns: float
    finish_ns: float
    status: str

    def to_dict(self) -> dict:
        return {
            "rid": self.rid,
            "attempt": self.attempt,
            "shard": self.shard,
            "replica": self.replica,
            "core": self.core,
            "cause": self.cause,
            "dispatch_ns": self.dispatch_ns,
            "start_ns": self.start_ns,
            "finish_ns": self.finish_ns,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AttemptTrace":
        return cls(
            rid=int(d["rid"]),
            attempt=int(d["attempt"]),
            shard=int(d["shard"]),
            replica=int(d["replica"]),
            core=int(d["core"]),
            cause=str(d["cause"]),
            dispatch_ns=float(d["dispatch_ns"]),
            start_ns=float(d["start_ns"]),
            finish_ns=float(d["finish_ns"]),
            status=str(d["status"]),
        )


class _WindowAcc:
    """Mutable per-window accumulator behind :class:`TelemetryCollector`."""

    __slots__ = (
        "completed",
        "failed",
        "shed",
        "retries",
        "hedges",
        "violations",
        "max_depth",
        "latencies",
        "shard_completed",
        "shard_failed",
        "classes",
    )

    def __init__(self, n_shards: int):
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.retries = 0
        self.hedges = 0
        self.violations = 0
        self.max_depth = 0
        self.latencies: list = []
        self.shard_completed = [0] * n_shards
        self.shard_failed = [0] * n_shards
        # class -> [completed, violations, shed, failed]
        self.classes: Dict[str, list] = {}

    def cls(self, name: str) -> list:
        acc = self.classes.get(name)
        if acc is None:
            acc = self.classes[name] = [0, 0, 0, 0]
        return acc


class TelemetryCollector:
    """Per-run mutable state the simulators' hooks feed.

    Every hook is observation-only -- no simulator state is read back
    out, so enabling telemetry cannot perturb a run.  Events at time
    ``t`` land in window ``int(t / window_ns)`` (one IEEE division plus
    a truncation).
    """

    __slots__ = ("config", "window_ns", "n_shards", "traces", "_acc", "_max")

    def __init__(self, config: TelemetryConfig, n_shards: int = 1):
        self.config = config
        self.window_ns = config.window_ns
        self.n_shards = n_shards
        self.traces: Optional[List[AttemptTrace]] = (
            [] if config.traces else None
        )
        self._acc: Dict[int, _WindowAcc] = {}
        self._max = -1

    def _window(self, t: float) -> _WindowAcc:
        idx = int(t / self.window_ns)
        acc = self._acc.get(idx)
        if acc is None:
            acc = self._acc[idx] = _WindowAcc(self.n_shards)
            if idx > self._max:
                self._max = idx
        return acc

    def grow(self, n_shards: int) -> None:
        """Widen the per-shard arrays mid-run (a reconfig shard split).

        Windows accumulated before the split are zero-padded for the new
        shards; shrinking is never needed (merges retire shard ids but
        their columns remain).  No-op when not actually growing.
        """
        if n_shards <= self.n_shards:
            return
        pad = n_shards - self.n_shards
        for acc in self._acc.values():
            acc.shard_completed.extend([0] * pad)
            acc.shard_failed.extend([0] * pad)
        self.n_shards = n_shards

    # -- hooks (called by the simulators; gated on `is not None`) -----------

    def on_completed(
        self,
        t: float,
        latency_ns: float,
        shard: int = 0,
        slo_class: Optional[str] = None,
        slo_ns: Optional[float] = None,
    ) -> None:
        acc = self._window(t)
        acc.completed += 1
        acc.shard_completed[shard] += 1
        acc.latencies.append(latency_ns)
        slo = slo_ns if slo_ns is not None else self.config.slo_p99_ns
        violated = slo is not None and latency_ns > slo
        if violated:
            acc.violations += 1
        if slo_class is not None:
            cls = acc.cls(slo_class)
            cls[0] += 1
            if violated:
                cls[1] += 1

    def on_failed(
        self, t: float, shard: int = 0, slo_class: Optional[str] = None
    ) -> None:
        acc = self._window(t)
        acc.failed += 1
        acc.shard_failed[shard] += 1
        if slo_class is not None:
            acc.cls(slo_class)[3] += 1

    def on_shed(
        self, t: float, shard: int = 0, slo_class: Optional[str] = None
    ) -> None:
        acc = self._window(t)
        acc.shed += 1
        if slo_class is not None:
            acc.cls(slo_class)[2] += 1

    def on_retry(self, t: float, shard: int = 0) -> None:
        self._window(t).retries += 1

    def on_hedge(self, t: float, shard: int = 0) -> None:
        self._window(t).hedges += 1

    def on_depth(self, t: float, depth: int) -> None:
        acc = self._window(t)
        if depth > acc.max_depth:
            acc.max_depth = depth

    # -- trace recording (only reached when config.traces) ------------------

    def trace_open_loop(self, req, now: float) -> None:
        """Single-node completion: one attempt, dispatched at arrival."""
        self.traces.append(
            AttemptTrace(
                rid=req.rid,
                attempt=1,
                shard=0,
                replica=0,
                core=req.core,
                cause="arrival",
                dispatch_ns=req.arrival_ns,
                start_ns=req.start_ns,
                finish_ns=now,
                status="completed",
            )
        )

    def trace_attempt(
        self, attempt, shard: int, replica: int, finish_ns: float, status: str
    ) -> None:
        """Cluster attempt end (duck-typed ``_Attempt``: the cluster sim
        stamps ``attempt_no`` / ``cause`` / ``dispatch_ns`` at dispatch
        time whenever tracing is on)."""
        self.traces.append(
            AttemptTrace(
                rid=attempt.record.rid,
                attempt=attempt.attempt_no,
                shard=shard,
                replica=replica,
                core=attempt.core,
                cause=attempt.cause,
                dispatch_ns=attempt.dispatch_ns,
                start_ns=attempt.start_ns,
                finish_ns=finish_ns,
                status=status,
            )
        )

    # -- finalization --------------------------------------------------------

    def series(self) -> TimeSeries:
        """The frozen dense time-series (windows 0..last non-empty)."""
        # Imported lazily like repro.serve.metrics: repro.bench pulls in
        # the experiment drivers, so a top-level import would be circular.
        from repro.bench.stats import percentiles

        windows = []
        for idx in range(self._max + 1):
            acc = self._acc.get(idx)
            if acc is None:
                windows.append(
                    WindowStats(
                        index=idx,
                        shard_completed=(0,) * self.n_shards,
                        shard_failed=(0,) * self.n_shards,
                    )
                )
                continue
            if acc.latencies:
                ps = percentiles(acc.latencies, (50.0, 99.0))
                p50_ns: Optional[float] = float(ps[50.0])
                p99_ns: Optional[float] = float(ps[99.0])
            else:
                p50_ns = p99_ns = None
            windows.append(
                WindowStats(
                    index=idx,
                    completed=acc.completed,
                    failed=acc.failed,
                    shed=acc.shed,
                    retries=acc.retries,
                    hedges=acc.hedges,
                    violations=acc.violations,
                    max_queue_depth=acc.max_depth,
                    p50_ns=p50_ns,
                    p99_ns=p99_ns,
                    shard_completed=tuple(acc.shard_completed),
                    shard_failed=tuple(acc.shard_failed),
                    class_stats=tuple(
                        (name, c[0], c[1], c[2], c[3])
                        for name, c in sorted(acc.classes.items())
                    ),
                )
            )
        return TimeSeries(
            window_ns=self.window_ns,
            n_shards=self.n_shards,
            windows=tuple(windows),
        )

    def trace_tuple(self) -> Optional[Tuple[AttemptTrace, ...]]:
        return None if self.traces is None else tuple(self.traces)


# ---------------------------------------------------------------------------
# SLO burn rate: pure functions of a TimeSeries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BurnWindow:
    """One window's view of the error budget.

    ``burn_rate`` is the standard SRE ratio: the window's bad fraction
    over the budget fraction (1.0 = burning exactly at budget).
    ``budget_left`` is the fraction of the whole run's budget remaining
    after this window (may go negative once exhausted).
    """

    index: int
    completed: int
    bad: int
    burn_rate: float
    budget_left: float


@dataclass(frozen=True)
class BurnRateReport:
    """Error-budget accounting over one :class:`TimeSeries`.

    The budget is ``budget_fraction`` of the run's completed-or-failed
    requests (e.g. 0.01 for a 99% SLO); *bad* requests are completions
    over the SLO plus failures (sheds are deliberate admission-control
    rejections and excluded unless ``include_shed``).
    ``time_to_exhaustion_ns`` extrapolates the observed average burn:
    the sim time at which the budget runs out if the run kept burning at
    its mean rate (None when nothing burned; at most ``span_ns`` when
    the budget was exhausted inside the run).
    """

    slo_class: Optional[str]
    budget_fraction: float
    window_ns: float
    windows: Tuple[BurnWindow, ...]
    total: int
    total_bad: int
    consumed: float
    exhausted_window: Optional[int]
    time_to_exhaustion_ns: Optional[float]


def _window_counts(
    w: WindowStats, slo_class: Optional[str], include_shed: bool
) -> Tuple[int, int]:
    """(completed-or-failed, bad) of one window for a class or overall."""
    if slo_class is None:
        total = w.completed + w.failed
        bad = w.violations + w.failed
        if include_shed:
            total += w.shed
            bad += w.shed
        return total, bad
    for name, completed, violations, shed, failed in w.class_stats:
        if name == slo_class:
            total = completed + failed
            bad = violations + failed
            if include_shed:
                total += shed
                bad += shed
            return total, bad
    return 0, 0


def burn_rate_report(
    series: TimeSeries,
    budget_fraction: float,
    slo_class: Optional[str] = None,
    include_shed: bool = False,
) -> BurnRateReport:
    """Pure error-budget accounting over a windowed time-series.

    Deterministic scalar arithmetic only -- the report is a function of
    the series, so it inherits the series' byte-identity.
    """
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError(
            f"budget_fraction must be in (0, 1], got {budget_fraction}"
        )
    per_window = [
        _window_counts(w, slo_class, include_shed) for w in series.windows
    ]
    total = sum(t for t, _ in per_window)
    total_bad = sum(b for _, b in per_window)
    budget = budget_fraction * total
    windows = []
    cum_bad = 0
    exhausted: Optional[int] = None
    for w, (count, bad) in zip(series.windows, per_window):
        cum_bad += bad
        burn = (
            (bad / count) / budget_fraction if count else 0.0
        )
        left = 1.0 - (cum_bad / budget) if budget else 1.0
        if exhausted is None and budget and cum_bad >= budget:
            exhausted = w.index
        windows.append(
            BurnWindow(
                index=w.index,
                completed=count,
                bad=bad,
                burn_rate=burn,
                budget_left=left,
            )
        )
    consumed = (total_bad / budget) if budget else 0.0
    tte: Optional[float] = None
    if consumed > 0.0:
        tte = series.span_ns / consumed
    return BurnRateReport(
        slo_class=slo_class,
        budget_fraction=budget_fraction,
        window_ns=series.window_ns,
        windows=tuple(windows),
        total=total,
        total_bad=total_bad,
        consumed=consumed,
        exhausted_window=exhausted,
        time_to_exhaustion_ns=tte,
    )


# ---------------------------------------------------------------------------
# Obs bridges: traces as spans, published series for --obs-dir
# ---------------------------------------------------------------------------


def spans_from_traces(
    traces: Sequence[AttemptTrace], label: str = "serve"
) -> List[dict]:
    """Render attempt traces as ``repro.obs`` span dicts.

    One parent ``request`` span per rid (first dispatch to last attempt
    end) with one ``request/attempt`` child per attempt, on sim-time
    nanoseconds with a synthetic pid of 0 -- deterministic, so the span
    stream is as replayable as the traces.  ``status`` is ``"error"``
    for cancelled/lost attempts and for requests whose last attempt did
    not complete, which makes crash fallout visible in the flame table's
    error column.
    """
    by_rid: Dict[int, List[AttemptTrace]] = {}
    for t in traces:
        by_rid.setdefault(t.rid, []).append(t)
    spans: List[dict] = []
    for rid in sorted(by_rid):
        attempts = by_rid[rid]
        first = min(a.dispatch_ns for a in attempts)
        last = max(a.finish_ns for a in attempts)
        won = any(a.status == "completed" for a in attempts)
        req_sid = f"{label}:req:{rid}"
        spans.append(
            {
                "sid": req_sid,
                "parent": None,
                "name": "request",
                "path": "request",
                "pid": 0,
                "start_ns": first,
                "wall_ns": last - first,
                "status": "ok" if won else "error",
                "attrs": {
                    "label": label,
                    "rid": rid,
                    "shard": attempts[0].shard,
                    "attempts": len(attempts),
                },
            }
        )
        for a in attempts:
            spans.append(
                {
                    "sid": f"{req_sid}:a{a.attempt}",
                    "parent": req_sid,
                    "name": "attempt",
                    "path": "request/attempt",
                    "pid": 0,
                    "start_ns": a.dispatch_ns,
                    "wall_ns": a.finish_ns - a.dispatch_ns,
                    "status": (
                        "error"
                        if a.status in ("cancelled", "lost")
                        else "ok"
                    ),
                    "attrs": {
                        "label": label,
                        "rid": a.rid,
                        "shard": a.shard,
                        "replica": a.replica,
                        "core": a.core,
                        "cause": a.cause,
                        "outcome": a.status,
                    },
                }
            )
    return spans


#: Series (and trace spans) published by experiments this process, for
#: ``--obs-dir`` to drain into ``timeseries.jsonl`` / ``spans.jsonl``.
_PUBLISHED: List[dict] = []
_PUBLISHED_SPANS: List[dict] = []


def publish(
    label: str,
    series: TimeSeries,
    traces: Optional[Sequence[AttemptTrace]] = None,
) -> None:
    """Buffer a labelled series for the CLI's obs sink.

    Experiments call this as they build their telemetry tables; the
    bench CLI drains the buffer into ``timeseries.jsonl`` (and trace
    spans into ``spans.jsonl``) when ``--obs-dir`` is set.
    """
    _PUBLISHED.append(
        {
            "label": label,
            "content_key": series.content_key(),
            "series": series.to_dict(),
        }
    )
    if traces:
        _PUBLISHED_SPANS.extend(spans_from_traces(traces, label=label))


def drain_published() -> Tuple[List[dict], List[dict]]:
    """(timeseries records, trace span dicts); empties the buffers."""
    records, spans = list(_PUBLISHED), list(_PUBLISHED_SPANS)
    _PUBLISHED.clear()
    _PUBLISHED_SPANS.clear()
    return records, spans


def clear_published() -> None:
    """Drop buffered series (the CLI resets between in-process runs)."""
    _PUBLISHED.clear()
    _PUBLISHED_SPANS.clear()
