"""Multi-tenant scenario execution: admission control, shedding, SLOs.

This is the layer that *runs* a :class:`~repro.serve.scenario.ScenarioSpec`:
it materializes the spec into a :class:`~repro.serve.trace.TenantTrace`,
replays the trace through the PR 5 cluster simulator, and splits the
results back out per tenant.  The simulator itself is reused unchanged
-- :class:`_TenantSim` subclasses :class:`~repro.serve.cluster._ClusterSim`
and overrides exactly two points: the record factory (to stamp tenant
identity on each request) and the arrival handler (to apply admission
control before dispatch).  With admission off both overrides are
behaviour-preserving, which is why the degenerate single-tenant replay
is byte-identical to a direct :func:`~repro.serve.cluster.simulate_cluster`
call (``tests/test_tenancy_differential.py``).

**Admission control and load shedding.**  Following the
:mod:`repro.serve.faults` determinism doctrine, the shedding decision is
the pure function :func:`should_shed` of (admission spec, SLO class,
shard backlog): a request is rejected at its arrival instant when its
shard's backlog -- queued plus in-service attempts summed over all
replicas, the same quantity the queue-depth stats track -- has reached
its class's threshold.  A shed request never enters a queue, is never
retried, and counts as neither completed nor failed; it is the router
deliberately trading bronze goodput for gold tail latency, and the
per-tenant ``shed`` counters make the trade visible.  Thresholds are
per class (gold/silver/bronze), so under a flash crowd bronze sheds
first, silver next, and gold -- unbounded by default -- keeps its p99
(``ext_tenants`` measures exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.serve.cluster import (
    Cluster,
    ClusterRequest,
    ClusterResult,
    _ClusterSim,
)
from repro.serve.metrics import LatencySummary, summarize
from repro.serve.router import ShardMap
from repro.serve.scenario import (
    BRONZE,
    GOLD,
    SILVER,
    SLO_CLASSES,
    AdmissionSpec,
    ScenarioSpec,
)
from repro.serve.telemetry import TelemetryConfig
from repro.serve.trace import TenantTrace

__all__ = [
    "GOLD",
    "SILVER",
    "BRONZE",
    "SLO_CLASSES",
    "TenantRequest",
    "TenantStats",
    "TenancyResult",
    "should_shed",
    "simulate_scenario",
    "replay_trace",
]


def should_shed(
    admission: AdmissionSpec, slo_class: str, shard_backlog: int
) -> bool:
    """Pure shedding rule: reject iff the class's threshold is reached.

    A pure function of (config, queue state) -- no randomness, no clock,
    no history -- per the :mod:`repro.serve.faults` determinism rules;
    replaying the same trace therefore sheds the same requests.
    """
    if not admission.enabled:
        return False
    threshold = admission.threshold(slo_class)
    return threshold is not None and shard_backlog >= threshold


@dataclass
class TenantRequest(ClusterRequest):
    """A cluster request stamped with its tenant, plus the shed flag."""

    #: Index into the scenario's tenant tuple.
    tenant: int = -1
    #: True iff admission control rejected this request at arrival.
    shed: bool = False


@dataclass
class TenantStats:
    """One tenant's view of a scenario run."""

    tenant: int
    name: str
    slo_class: str
    p99_slo_ns: Optional[float] = None
    requests: int = 0
    completed: int = 0
    #: Requests that exhausted their retry budget (cluster failures).
    failed: int = 0
    #: Requests rejected by admission control (never dispatched).
    shed: int = 0
    retries: int = 0
    hedges: int = 0
    latencies_ns: List[float] = field(default_factory=list)
    #: Run makespan (shared across tenants; per-tenant throughput is
    #: completions over the whole run's wall clock).
    makespan_ns: float = 0.0

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def goodput(self) -> float:
        """Fraction of offered requests that completed."""
        return self.completed / self.requests if self.requests else 1.0

    def summary(self) -> Optional[LatencySummary]:
        """Latency percentiles over this tenant's completed requests
        (None when nothing completed -- a fully shed tenant)."""
        if not self.latencies_ns:
            return None
        throughput = (
            self.completed / (self.makespan_ns * 1e-9)
            if self.makespan_ns > 0.0
            else 0.0
        )
        return summarize(self.latencies_ns, throughput)

    @property
    def requests_over_slo(self) -> int:
        """Completed requests whose latency exceeded the p99 target."""
        if self.p99_slo_ns is None:
            return 0
        return sum(1 for l in self.latencies_ns if l > self.p99_slo_ns)

    def slo_met(self) -> Optional[bool]:
        """Whether this tenant's p99 met its target (None: no target or
        no completions to measure)."""
        if self.p99_slo_ns is None:
            return None
        s = self.summary()
        return None if s is None else s.meets(self.p99_slo_ns)


@dataclass
class TenancyResult:
    """Everything one scenario run produced: the underlying cluster
    result plus the per-tenant split and the replayed trace."""

    spec: ScenarioSpec
    trace: TenantTrace
    cluster: ClusterResult
    tenants: List[TenantStats]

    @property
    def total_shed(self) -> int:
        return sum(t.shed for t in self.tenants)

    @property
    def telemetry(self):
        """The run's windowed time-series (None when not collected).
        Tenancy telemetry carries per-class ``class_stats``, so the
        burn-rate report can be split by gold/silver/bronze."""
        return self.cluster.telemetry

    @property
    def traces(self):
        return self.cluster.traces

    @property
    def admitted(self) -> int:
        return len(self.cluster.records) - self.total_shed

    def summary(self) -> LatencySummary:
        """Cluster-wide percentiles over completed requests."""
        return self.cluster.summary()

    def by_name(self, name: str) -> TenantStats:
        return self.tenants[self.spec.tenant_index(name)]

    def to_metrics(
        self, registry=None, prefix: str = "serve.tenancy"
    ) -> None:
        """Publish per-tenant latency/violation/shed counters into an
        obs metrics registry, mirroring
        :meth:`~repro.serve.cluster.ClusterResult.to_metrics`.
        """
        from repro.obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        reg.counter(f"{prefix}.requests").inc(len(self.cluster.records))
        reg.counter(f"{prefix}.shed").inc(self.total_shed)
        for ts in self.tenants:
            p = f"{prefix}.tenant.{ts.name}"
            reg.counter(f"{p}.requests").inc(ts.requests)
            reg.counter(f"{p}.completed").inc(ts.completed)
            reg.counter(f"{p}.failed").inc(ts.failed)
            reg.counter(f"{p}.shed").inc(ts.shed)
            reg.counter(f"{p}.retries").inc(ts.retries)
            summary = ts.summary()
            if summary is not None:
                reg.gauge(f"{p}.latency.p50_ns").set_max(summary.p50_ns)
                reg.gauge(f"{p}.latency.p99_ns").set_max(summary.p99_ns)
            if ts.p99_slo_ns is not None:
                reg.counter(f"{p}.slo.runs").inc()
                reg.counter(f"{p}.slo.requests_over").inc(
                    ts.requests_over_slo
                )
                if ts.slo_met() is False:
                    reg.counter(f"{p}.slo.violations").inc()


class _TenantSim(_ClusterSim):
    """Cluster simulation with tenant identity and admission control.

    Overrides only the record factory and the arrival handler; every
    queueing, retry, hedging and fault decision is inherited verbatim.
    """

    def __init__(
        self,
        cluster: Cluster,
        horizon_ns: float,
        spec: ScenarioSpec,
        trace: TenantTrace,
        telemetry: Optional[TelemetryConfig] = None,
    ):
        super().__init__(cluster, horizon_ns, telemetry=telemetry)
        self.spec = spec
        self.trace = trace

    def _telemetry_class(self, record: TenantRequest):
        tenant = self.spec.tenants[record.tenant]
        return tenant.slo_class, tenant.p99_slo_ns

    def _make_record(
        self, rid: int, key: int, t: float, shard: int
    ) -> TenantRequest:
        return TenantRequest(
            rid=rid,
            key=int(key),
            shard=shard,
            arrival_ns=float(t),
            tenant=int(self.trace.tenants[rid]),
        )

    def on_arrival(self, record: TenantRequest, now: float) -> None:
        admission = self.spec.admission
        if admission.enabled:
            slo_class = self.spec.tenants[record.tenant].slo_class
            backlog = sum(
                r.backlog for r in self.replicas[record.shard]
            )
            if should_shed(admission, slo_class, backlog):
                record.shed = True
                if self.telemetry is not None:
                    self.telemetry.on_shed(now, record.shard, slo_class)
                return  # rejected: never queued, never retried
        super().on_arrival(record, now)


def _split_by_tenant(
    spec: ScenarioSpec, trace: TenantTrace, result: ClusterResult
) -> List[TenantStats]:
    stats = [
        TenantStats(
            tenant=i,
            name=t.name,
            slo_class=t.slo_class,
            p99_slo_ns=t.p99_slo_ns,
            makespan_ns=result.makespan_ns,
        )
        for i, t in enumerate(spec.tenants)
    ]
    for record in result.records:
        ts = stats[record.tenant]
        ts.requests += 1
        ts.retries += record.retries
        if record.hedged:
            ts.hedges += 1
        if record.shed:
            ts.shed += 1
        elif record.completed:
            ts.completed += 1
            ts.latencies_ns.append(record.latency_ns)
        elif record.failed:
            ts.failed += 1
    return stats


def replay_trace(
    spec: ScenarioSpec,
    trace: TenantTrace,
    services: Sequence,
    keys: Optional[Sequence[int]] = None,
    shard_map: Optional[ShardMap] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> TenancyResult:
    """Replay a materialized trace under a spec's topology and policies.

    Deterministic in (spec, trace, services, shard_map): replaying a
    saved trace reproduces a run byte for byte.  ``shard_map`` defaults
    to the equal-count split of ``keys`` (one of the two must be given);
    ``services[s]`` is shard ``s``'s :class:`~repro.serve.core.ServiceModel`.
    """
    if trace.tenant_names != tuple(t.name for t in spec.tenants):
        raise ValueError(
            f"trace tenants {trace.tenant_names} do not match spec "
            f"tenants {tuple(t.name for t in spec.tenants)}"
        )
    if shard_map is None:
        if keys is None:
            raise ValueError("need keys or an explicit shard_map")
        shard_map = ShardMap.from_keys(keys, spec.topology.n_shards)
    cluster = Cluster(
        shard_map=shard_map,
        services=services,
        n_replicas=spec.topology.n_replicas,
        n_cores=spec.topology.n_cores,
        policy=spec.policy.to_router_policy(),
        faults=spec.faults.to_fault_config(),
        reconfig=spec.reconfig,
    )
    horizon = spec.fault_horizon_ns
    if horizon is None:
        last = float(trace.arrivals_ns[-1])
        horizon = last + max(0.25 * last, 1e6)
    sim = _TenantSim(
        cluster,
        horizon_ns=horizon,
        spec=spec,
        trace=trace,
        telemetry=telemetry,
    )
    sim.load([float(t) for t in trace.arrivals_ns], trace.keys)
    result = sim.run()
    return TenancyResult(
        spec=spec,
        trace=trace,
        cluster=result,
        tenants=_split_by_tenant(spec, trace, result),
    )


def simulate_scenario(
    spec: ScenarioSpec,
    services: Sequence,
    keys: Sequence[int],
    shard_map: Optional[ShardMap] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> TenancyResult:
    """Materialize and run a scenario against a served key array.

    Equivalent to ``replay_trace(spec, TenantTrace.from_spec(spec, keys),
    ...)`` -- generation and replay are the same code path, which is what
    makes record-replay sound.
    """
    trace = TenantTrace.from_spec(spec, keys)
    return replay_trace(
        spec,
        trace,
        services,
        keys=keys,
        shard_map=shard_map,
        telemetry=telemetry,
    )
