"""Deterministic discrete-event simulation of a sharded, replicated cluster.

The single-node simulator (:mod:`repro.serve.core`) models one machine;
this module scales it out.  A cluster is ``n_shards`` key ranges, each
served by ``n_replicas`` independent replicas (every replica is a full
:class:`~repro.serve.core._EventLoop` machine with its own cores and the
shard's :class:`~repro.serve.core.ServiceModel`), all interleaved on one
global :class:`~repro.serve.core.SealedEventQueue` so the whole cluster
shares a single deterministic clock.

The router (:mod:`repro.serve.router`) maps each request's key to its
shard by binary search and picks the least-backlog healthy replica.
Failure handling, in the order a request experiences it:

* **retry + capped exponential backoff** -- an attempt lost to a crash
  (or a dispatch that finds every replica down) is retried after
  ``min(base * 2**(k-1), cap)`` ns, up to ``max_attempts`` total
  attempts; a request that exhausts them fails and counts against
  availability.
* **hedging** -- optionally, a request still incomplete
  ``hedge_after_ns`` after dispatch is duplicated to a *different*
  healthy replica; the first completion wins and the loser's work is
  simply absorbed (hedging without cancellation, so its capacity cost is
  modelled, not assumed away).
* **degraded-mode routing** -- while some replicas of a shard are down,
  dispatch simply concentrates on the survivors (the backlog-aware
  replica choice does this with no special casing); only a fully-dark
  shard forces backoff.

Faults come from a pre-computed seeded schedule
(:mod:`repro.serve.faults`): crashes empty a replica (queued and
in-flight attempts are lost, then retried by the router) and slow events
multiply its service times.

Live reconfiguration (:mod:`repro.serve.reconfig`) rides the same event
queue: shard splits/merges version the key-range partition into epochs
(stale requests re-resolve at dispatch), rebuilds drain a replica via
the degraded-routing path and swap its index atomically, and an
autoscaler adds/retires replicas from queue-depth and p99 signals.  A
cluster without a :class:`~repro.serve.reconfig.ReconfigSpec` runs the
exact pre-reconfig code paths, byte for byte.

With one shard, one replica and no faults, the cluster *is* the
single-node simulator: the same events are pushed with the same
sequence numbers and popped by the same loop code, so results are
byte-identical (``tests/test_cluster_differential.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.serve.core import (
    _ARRIVAL,
    _FINISH,
    Request,
    SealedEventQueue,
    ServiceModel,
    _EventLoop,
)
from repro.serve.faults import (
    CRASH,
    FaultConfig,
    FaultEvent,
    fault_schedule,
)
from repro.serve.metrics import LatencySummary, summarize
from repro.serve.reconfig import (
    ReconfigEvent,
    ReconfigRuntime,
    ReconfigSpec,
)
from repro.serve.router import RouterPolicy, ShardMap, pick_replica
from repro.serve.telemetry import TelemetryCollector, TelemetryConfig

# Additional event kinds; _ARRIVAL (0) and _FINISH (1) come from core so
# the degenerate cluster pushes exactly the single-node event stream.
_HEDGE = 2
_RETRY = 3
_FLUSH = 4
_FAULT_BEGIN = 5
_FAULT_END = 6
_RECONFIG = 7


@dataclass
class ClusterRequest:
    """End-to-end record of one request, across all its attempts."""

    rid: int
    key: int
    shard: int
    arrival_ns: float
    attempts: int = 0
    retries: int = 0
    hedged: bool = False
    completed: bool = False
    failed: bool = False
    start_ns: float = -1.0
    finish_ns: float = -1.0
    replica: int = -1
    core: int = -1
    #: Attempts currently queued or in service (internal bookkeeping).
    live: int = 0
    #: Replica id of the most recent dispatch (hedges exclude it).
    last_replica: int = -1
    #: Shard-map epoch the request was last routed under; requests
    #: stamped with a stale epoch re-resolve their shard at dispatch.
    epoch: int = 0

    @property
    def latency_ns(self) -> float:
        """Sojourn time of the *winning* attempt, from original arrival."""
        return self.finish_ns - self.arrival_ns


@dataclass
class _Attempt(Request):
    """One dispatch of a request to one replica (a core-level Request)."""

    record: Optional[ClusterRequest] = None
    rep: Optional["_Replica"] = None
    cancelled: bool = False
    #: Trace metadata, stamped at dispatch only when tracing is on.
    cause: str = "arrival"
    dispatch_ns: float = -1.0
    attempt_no: int = 0


@dataclass
class _Replica:
    """One replica: an independent single-node event loop plus health."""

    shard: int
    rid: int
    loop: _EventLoop
    up: bool = True
    slow: bool = False
    served: int = 0
    crash_count: int = 0
    slow_count: int = 0
    #: Permanently removed from the rotation (merge or scale-down);
    #: queued work still completes, and fault recovery cannot revive it.
    retired: bool = False
    #: Out of the rotation for a background index rebuild.
    rebuilding: bool = False

    @property
    def backlog(self) -> int:
        return sum(c.backlog for c in self.loop.cores)


@dataclass
class ShardStats:
    """Per-shard operational counters of one simulation run."""

    shard: int
    completed: int = 0
    retries: int = 0
    hedges: int = 0
    crashes: int = 0
    slow_events: int = 0
    #: Largest backlog (queued + in service over all replicas) seen at
    #: any dispatch instant.
    max_queue_depth: int = 0


@dataclass
class Cluster:
    """Topology + policy of a simulated cluster (no run state).

    ``services[s]`` models shard ``s``'s index build; every replica of a
    shard shares it (replicas serve identical copies of the shard).
    """

    shard_map: ShardMap
    services: Sequence[ServiceModel]
    n_replicas: int = 2
    n_cores: int = 2
    policy: RouterPolicy = field(default_factory=RouterPolicy)
    faults: Optional[FaultConfig] = None
    #: Optional live-reconfiguration plan (:mod:`repro.serve.reconfig`);
    #: None (or a spec with no triggers) leaves the run untouched.
    reconfig: Optional[ReconfigSpec] = None

    def __post_init__(self):
        if len(self.services) != self.shard_map.n_shards:
            raise ValueError(
                f"{self.shard_map.n_shards} shards need "
                f"{self.shard_map.n_shards} service models, "
                f"got {len(self.services)}"
            )
        if self.n_replicas < 1:
            raise ValueError(
                f"need at least one replica, got {self.n_replicas}"
            )

    @property
    def n_shards(self) -> int:
        return self.shard_map.n_shards


@dataclass
class ClusterResult:
    """Everything one cluster run produced, in deterministic order."""

    records: List[ClusterRequest]
    n_shards: int
    n_replicas: int
    n_cores: int
    makespan_ns: float
    completed: int
    failed: int
    total_retries: int
    total_hedges: int
    crashes: int
    slow_events: int
    fault_events: List[FaultEvent]
    shard_stats: List[ShardStats]
    #: Windowed :class:`~repro.serve.telemetry.TimeSeries` when the run
    #: was given a :class:`~repro.serve.telemetry.TelemetryConfig`.
    telemetry: Optional[object] = None
    #: Tuple of :class:`~repro.serve.telemetry.AttemptTrace` when the
    #: config asked for traces.
    traces: Optional[tuple] = None
    #: Reconfiguration history, present only when the cluster had an
    #: enabled :class:`~repro.serve.reconfig.ReconfigSpec`: the epoch
    #: sequence, completed rebuilds ``(time_ns, shard, replica)``,
    #: autoscaler actions ``(time_ns, shard, +1 | -1)``, and the final
    #: live replica count.
    epochs: Optional[tuple] = None
    rebuilds: Optional[tuple] = None
    scale_events: Optional[tuple] = None
    live_replicas: Optional[int] = None

    @property
    def epoch_count(self) -> int:
        """Number of shard-map epochs the run went through (1 = static)."""
        return len(self.epochs) if self.epochs else 1

    @property
    def final_shards(self) -> int:
        """Key ranges in the final epoch (splits add, merges remove)."""
        return len(self.epochs[-1].owners) if self.epochs else self.n_shards

    @property
    def final_replicas(self) -> int:
        """Live replicas at the end of the run, over active shards."""
        if self.live_replicas is not None:
            return self.live_replicas
        return self.n_shards * self.n_replicas

    @property
    def availability(self) -> float:
        """Fraction of requests that completed (vs exhausted retries)."""
        return self.completed / len(self.records) if self.records else 1.0

    @property
    def max_queue_depth(self) -> int:
        return max((s.max_queue_depth for s in self.shard_stats), default=0)

    @property
    def latencies_ns(self) -> List[float]:
        return [r.latency_ns for r in self.records if r.completed]

    @property
    def throughput_per_sec(self) -> float:
        if self.makespan_ns <= 0.0:
            return 0.0
        return self.completed / (self.makespan_ns * 1e-9)

    def summary(self) -> LatencySummary:
        """Percentiles over *completed* requests (failed ones have no
        latency; availability reports them separately)."""
        return summarize(self.latencies_ns, self.throughput_per_sec)

    def to_metrics(self, registry=None, prefix: str = "serve.cluster") -> None:
        """Publish run counters into an obs metrics registry.

        Mirrors :meth:`repro.serve.metrics.LatencySummary.to_metrics`:
        per-shard queue-depth maxima and fault/retry counts land in the
        same ``metrics.json`` snapshot as every other subsystem, and the
        availability gauge keeps the *worst* value over repeated runs.
        """
        from repro.obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        reg.counter(f"{prefix}.requests").inc(len(self.records))
        reg.counter(f"{prefix}.completed").inc(self.completed)
        reg.counter(f"{prefix}.failed").inc(self.failed)
        reg.counter(f"{prefix}.retries").inc(self.total_retries)
        reg.counter(f"{prefix}.hedges").inc(self.total_hedges)
        reg.counter(f"{prefix}.faults.crashes").inc(self.crashes)
        reg.counter(f"{prefix}.faults.slow").inc(self.slow_events)
        reg.gauge(f"{prefix}.availability.min").set_min(self.availability)
        # Topology gauges: the autoscaler's inputs/outputs are observable
        # even for static runs (final == initial there).
        reg.gauge(f"{prefix}.shards").set(float(self.final_shards))
        if self.final_replicas > 0:
            reg.gauge(f"{prefix}.replicas").set(float(self.final_replicas))
        reg.counter(f"{prefix}.epochs").inc(self.epoch_count)
        depth_hist = reg.histogram(f"{prefix}.shard_queue_depth.max")
        for st in self.shard_stats:
            depth_hist.observe(st.max_queue_depth)
            reg.gauge(f"{prefix}.shard{st.shard}.queue_depth.max").set_max(
                st.max_queue_depth
            )
            reg.counter(f"{prefix}.shard{st.shard}.retries").inc(st.retries)
            reg.counter(f"{prefix}.shard{st.shard}.faults").inc(
                st.crashes + st.slow_events
            )


class _ClusterSim:
    """One run's mutable state; :func:`simulate_cluster` drives it.

    Every arrival plus the merged fault timeline is pushed before the
    first pop, so the :class:`~repro.serve.core.SealedEventQueue` sorts
    them in one pass.
    """

    def __init__(
        self,
        cluster: Cluster,
        horizon_ns: float,
        telemetry: Optional[TelemetryConfig] = None,
    ):
        self.cluster = cluster
        # The cluster owns the collector (replica loops keep theirs None
        # so completions are not double counted).
        self.telemetry: Optional[TelemetryCollector] = (
            TelemetryCollector(telemetry, n_shards=cluster.n_shards)
            if telemetry is not None
            else None
        )
        self.events = SealedEventQueue()
        self.replicas: List[List[_Replica]] = []
        for shard in range(cluster.n_shards):
            row = []
            for rid in range(cluster.n_replicas):
                loop = _EventLoop(
                    cluster.services[shard],
                    cluster.n_cores,
                    events=self.events,
                )
                rep = _Replica(shard=shard, rid=rid, loop=loop)
                loop.on_finish = self._make_completion_hook(rep)
                row.append(rep)
            self.replicas.append(row)
        self.records: List[ClusterRequest] = []
        self.shard_stats = [
            ShardStats(shard=s) for s in range(cluster.n_shards)
        ]
        self.batch_buf: Dict[int, List[ClusterRequest]] = {}
        self.makespan = 0.0
        self.completed = 0
        self.failed = 0
        self.total_retries = 0
        self.total_hedges = 0
        self.crashes = 0
        self.slow_events = 0
        self.schedule: List[FaultEvent] = []
        if cluster.faults is not None and cluster.faults.enabled:
            self.schedule = fault_schedule(
                cluster.faults,
                cluster.n_shards,
                cluster.n_replicas,
                horizon_ns,
            )
        # A disabled spec stays None: every reconfig branch below is
        # gated on it, so runs without triggers are byte-identical to
        # the pre-reconfig simulator (the differential suite pins this).
        self.reconfig: Optional[ReconfigRuntime] = None
        if cluster.reconfig is not None and cluster.reconfig.enabled:
            self.reconfig = ReconfigRuntime(self, cluster.reconfig, horizon_ns)

    # -- event generation ---------------------------------------------------

    def _make_record(
        self, rid: int, key: int, t: float, shard: int
    ) -> ClusterRequest:
        """Record factory; the tenancy layer overrides this to attach
        tenant identity without perturbing the event stream.  ``shard``
        is precomputed for the whole batch by ``load``."""
        return ClusterRequest(
            rid=rid,
            key=int(key),
            shard=shard,
            arrival_ns=float(t),
        )

    def load(self, arrivals_ns: Sequence[float], keys: Sequence[int]) -> None:
        """Push arrivals first (sequence numbers 0..n-1, exactly as the
        single-node simulator does), then the fault schedule.  Shard
        routing is vectorized over the whole key batch up front
        (:meth:`~repro.serve.router.ShardMap.shards_for`, exactly
        ``shard_for`` per key)."""
        shards = self.cluster.shard_map.shards_for(keys)
        for rid, (t, key) in enumerate(zip(arrivals_ns, keys)):
            record = self._make_record(rid, key, t, shards[rid])
            self.records.append(record)
            self.events.push(float(t), _ARRIVAL, record)
        for event in self.schedule:
            self.events.push(event.time_ns, _FAULT_BEGIN, event)
            self.events.push(event.recovery_ns, _FAULT_END, event)
        if self.reconfig is not None:
            for ev in self.reconfig.schedule:
                self.events.push(ev.time_ns, _RECONFIG, ev)

    # -- online operations (reconfig runtime calls back in) -----------------

    def schedule_reconfig(self, time_ns: float, ev: ReconfigEvent) -> None:
        """Push a follow-up trigger (a rebuild's completion) mid-run."""
        self.events.push(time_ns, _RECONFIG, ev)

    def provision_shard(self, service: ServiceModel) -> int:
        """Bring up a brand-new shard (a split's upper half): fresh
        replicas serving the parent's index, fresh stats row, and a
        widened telemetry collector.  Returns the new shard id --
        existing ids never shift."""
        sid = len(self.replicas)
        row = []
        for rid in range(self.cluster.n_replicas):
            loop = _EventLoop(
                service, self.cluster.n_cores, events=self.events
            )
            rep = _Replica(shard=sid, rid=rid, loop=loop)
            loop.on_finish = self._make_completion_hook(rep)
            row.append(rep)
        self.replicas.append(row)
        self.shard_stats.append(ShardStats(shard=sid))
        if self.telemetry is not None:
            self.telemetry.grow(sid + 1)
        return sid

    def provision_replica(self, shard: int, service: ServiceModel) -> None:
        """Autoscale-up: append one fresh replica to a shard's row."""
        row = self.replicas[shard]
        loop = _EventLoop(service, self.cluster.n_cores, events=self.events)
        rep = _Replica(shard=shard, rid=len(row), loop=loop)
        loop.on_finish = self._make_completion_hook(rep)
        row.append(rep)

    def retire_shard(self, shard: int) -> None:
        """Graceful decommission (a merge's orphan): every replica leaves
        the rotation for good; queued work completes, new traffic
        re-resolves to the surviving owner."""
        for rep in self.replicas[shard]:
            rep.retired = True
            rep.up = False

    # -- dispatch path ------------------------------------------------------

    def _telemetry_class(self, record: ClusterRequest):
        """(slo_class, slo_ns) stamped onto telemetry events; the
        tenancy layer overrides this with each tenant's class/SLO."""
        return None, None

    def _make_completion_hook(self, rep: _Replica):
        def hook(attempt: _Attempt, now: float) -> None:
            rep.served += 1
            record = attempt.record
            record.live -= 1
            tel = self.telemetry
            if record.completed or record.failed:
                # The hedged twin already won (or retries ran out).
                if tel is not None and tel.traces is not None:
                    tel.trace_attempt(attempt, rep.shard, rep.rid, now, "absorbed")
                return
            record.completed = True
            record.start_ns = attempt.start_ns
            record.finish_ns = now
            record.replica = rep.rid
            record.core = attempt.core
            self.completed += 1
            self.shard_stats[record.shard].completed += 1
            if now > self.makespan:
                self.makespan = now
            if self.reconfig is not None:
                self.reconfig.note_completion(record.shard, record.latency_ns)
            if tel is not None:
                cls, slo = self._telemetry_class(record)
                tel.on_completed(
                    now, record.latency_ns, record.shard, cls, slo
                )
                if tel.traces is not None:
                    tel.trace_attempt(
                        attempt, rep.shard, rep.rid, now, "completed"
                    )

        return hook

    def dispatch(
        self,
        record: ClusterRequest,
        now: float,
        exclude: Optional[int] = None,
        hedge: bool = False,
        cause: str = "arrival",
    ) -> bool:
        if self.reconfig is not None and not hedge:
            # Key-range handoff: a request routed under a stale epoch is
            # re-resolved against the current map before dispatch (a
            # hedge intentionally stays on its primary's shard).
            self.reconfig.resolve(record)
        replicas = self.replicas[record.shard]
        rep = pick_replica(replicas, exclude=exclude)
        if rep is None:
            if hedge:
                return False  # no second replica to hedge to
            record.attempts += 1
            self._maybe_retry(record, now)
            return False
        record.attempts += 1
        record.last_replica = rep.rid
        record.live += 1
        attempt = _Attempt(
            rid=record.rid,
            arrival_ns=record.arrival_ns,
            record=record,
            rep=rep,
        )
        tel = self.telemetry
        if tel is not None and tel.traces is not None:
            attempt.cause = cause
            attempt.dispatch_ns = now
            attempt.attempt_no = record.attempts
        rep.loop.dispatch(attempt, now)
        stats = self.shard_stats[record.shard]
        depth = sum(r.backlog for r in replicas)
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        if tel is not None:
            tel.on_depth(now, depth)
        policy = self.cluster.policy
        if (
            not hedge
            and policy.hedge_after_ns is not None
            and self.cluster.n_replicas > 1
        ):
            self.events.push(now + policy.hedge_after_ns, _HEDGE, record)
        return True

    def _maybe_retry(self, record: ClusterRequest, now: float) -> None:
        """Schedule the next attempt with capped exponential backoff."""
        if record.completed or record.failed:
            return
        if record.attempts >= self.cluster.policy.max_attempts:
            record.failed = True
            self.failed += 1
            if self.telemetry is not None:
                cls, _ = self._telemetry_class(record)
                self.telemetry.on_failed(now, record.shard, cls)
            return
        record.retries += 1
        self.total_retries += 1
        self.shard_stats[record.shard].retries += 1
        if self.telemetry is not None:
            self.telemetry.on_retry(now, record.shard)
        delay = self.cluster.policy.backoff_ns(record.retries)
        self.events.push(now + delay, _RETRY, record)

    # -- event handlers -----------------------------------------------------

    def on_arrival(self, record: ClusterRequest, now: float) -> None:
        window = self.cluster.policy.batch_window_ns
        if window > 0.0:
            buf = self.batch_buf.setdefault(record.shard, [])
            buf.append(record)
            if len(buf) == 1:
                self.events.push(now + window, _FLUSH, record.shard)
            return
        self.dispatch(record, now)

    def on_flush(self, shard: int, now: float) -> None:
        buf = self.batch_buf.get(shard, [])
        self.batch_buf[shard] = []
        for record in buf:
            self.dispatch(record, now)

    def on_finish(self, payload, now: float) -> None:
        loop, core_id, attempt = payload
        if attempt.cancelled:
            return  # replica crashed mid-service; its cores were reset
        loop.finish(core_id, attempt, now)

    def on_hedge(self, record: ClusterRequest, now: float) -> None:
        if record.completed or record.failed or record.hedged:
            return
        if record.live == 0:
            return  # lost to a crash; the retry path owns it now
        if self.dispatch(
            record, now, exclude=record.last_replica, hedge=True, cause="hedge"
        ):
            record.hedged = True
            self.total_hedges += 1
            self.shard_stats[record.shard].hedges += 1
            if self.telemetry is not None:
                self.telemetry.on_hedge(now, record.shard)

    def on_retry(self, record: ClusterRequest, now: float) -> None:
        if record.completed or record.failed:
            return
        self.dispatch(record, now, cause="retry")

    def on_fault_begin(self, event: FaultEvent, now: float) -> None:
        rep = self.replicas[event.shard][event.replica]
        stats = self.shard_stats[event.shard]
        if event.kind == CRASH:
            rep.up = False
            rep.crash_count += 1
            self.crashes += 1
            stats.crashes += 1
            self._drain_crashed(rep, now)
        else:
            rep.slow = True
            rep.loop.slow_factor = self.cluster.faults.slow_factor
            rep.slow_count += 1
            self.slow_events += 1
            stats.slow_events += 1

    def on_fault_end(self, event: FaultEvent, now: float) -> None:
        rep = self.replicas[event.shard][event.replica]
        if event.kind == CRASH:
            # Recovers empty (queues were drained at crash) -- unless it
            # was retired or is mid-rebuild, in which case the rotation
            # is owned by the reconfig lifecycle, not fault repair.
            rep.up = not (rep.retired or rep.rebuilding)
        else:
            rep.slow = False
            rep.loop.slow_factor = 1.0

    def on_reconfig(self, ev: ReconfigEvent, now: float) -> None:
        self.reconfig.on_event(ev, now)

    def _drain_crashed(self, rep: _Replica, now: float) -> None:
        """Cancel every attempt on a crashed replica and retry elsewhere.

        In-flight attempts keep their already-scheduled finish events on
        the heap; the ``cancelled`` flag turns those pops into no-ops.
        Cores are visited in id order, service slot before queue, so the
        retry order is deterministic.
        """
        lost: List[_Attempt] = []
        for core in rep.loop.cores:
            if core.current is not None:
                core.current.cancelled = True
                lost.append(core.current)
                core.current = None
            while core.queue:
                lost.append(core.queue.popleft())
        tel = self.telemetry
        tracing = tel is not None and tel.traces is not None
        for attempt in lost:
            if tracing:
                tel.trace_attempt(
                    attempt,
                    rep.shard,
                    rep.rid,
                    now,
                    "cancelled" if attempt.cancelled else "lost",
                )
            record = attempt.record
            record.live -= 1
            if record.live > 0:
                continue  # a hedged twin is still running elsewhere
            self._maybe_retry(record, now)

    # -- main loop ----------------------------------------------------------

    def run(self) -> ClusterResult:
        handlers = {
            _ARRIVAL: self.on_arrival,
            _HEDGE: self.on_hedge,
            _RETRY: self.on_retry,
            _FLUSH: self.on_flush,
            _FAULT_BEGIN: self.on_fault_begin,
            _FAULT_END: self.on_fault_end,
            _RECONFIG: self.on_reconfig,
        }
        while self.events:
            now, kind, _, payload = self.events.pop()
            if kind == _FINISH:
                self.on_finish(payload, now)
            else:
                handlers[kind](payload, now)
        return ClusterResult(
            records=self.records,
            n_shards=self.cluster.n_shards,
            n_replicas=self.cluster.n_replicas,
            n_cores=self.cluster.n_cores,
            makespan_ns=self.makespan,
            completed=self.completed,
            failed=self.failed,
            total_retries=self.total_retries,
            total_hedges=self.total_hedges,
            crashes=self.crashes,
            slow_events=self.slow_events,
            fault_events=self.schedule,
            shard_stats=self.shard_stats,
            telemetry=(
                self.telemetry.series()
                if self.telemetry is not None
                else None
            ),
            traces=(
                self.telemetry.trace_tuple()
                if self.telemetry is not None
                else None
            ),
            epochs=(
                tuple(self.reconfig.epochs)
                if self.reconfig is not None
                else None
            ),
            rebuilds=(
                tuple(self.reconfig.rebuilds)
                if self.reconfig is not None
                else None
            ),
            scale_events=(
                tuple(self.reconfig.scale_events)
                if self.reconfig is not None
                else None
            ),
            live_replicas=(
                self.reconfig.live_replicas()
                if self.reconfig is not None
                else None
            ),
        )


def simulate_cluster(
    cluster: Cluster,
    arrivals_ns: Sequence[float],
    keys: Sequence[int],
    fault_horizon_ns: Optional[float] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> ClusterResult:
    """Run one open-loop trace through the cluster; fully deterministic.

    ``keys[i]`` is the lookup key of the request arriving at
    ``arrivals_ns[i]``; the router shards on it.  ``fault_horizon_ns``
    bounds the fault schedule (default: last arrival plus 25% drain
    slack) -- it only changes which faults exist, never how any given
    schedule is replayed.  ``telemetry`` collects a windowed time-series
    (and, opt-in, attempt traces) without perturbing the run.
    """
    if len(arrivals_ns) != len(keys):
        raise ValueError(
            f"{len(arrivals_ns)} arrivals but {len(keys)} keys"
        )
    if not arrivals_ns:
        raise ValueError("need at least one request")
    if fault_horizon_ns is None:
        last = float(arrivals_ns[-1])
        fault_horizon_ns = last + max(0.25 * last, 1e6)
    sim = _ClusterSim(
        cluster,
        horizon_ns=fault_horizon_ns,
        telemetry=telemetry,
    )
    sim.load(arrivals_ns, keys)
    return sim.run()
