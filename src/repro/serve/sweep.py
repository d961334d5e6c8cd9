"""Parallel, cached simulation sweeps for the serving experiments.

The measurement grid already flows through picklable cells, a process
pool and a persistent cache (:mod:`repro.bench.parallel`); this module
gives the serving simulations the same treatment.  Each simulation an
experiment wants -- one open-loop run, one cluster replay, one tenancy
scenario -- is captured as a frozen *task* dataclass that holds its
configs as the objects themselves (:class:`MachineModel`,
:class:`RouterPolicy`, :class:`FaultConfig`, :class:`TelemetryConfig`,
:class:`ReconfigSpec`, :class:`ScenarioSpec`): hashable (in-process
memo), picklable (``--jobs`` fan-out) and JSON-able through
:mod:`repro.records`, so a task's key fields for
:func:`repro.bench.cache.cache_key` are its JSON form plus its ``kind``.
Workers rebuild arrival processes, request keys, shard maps and fault
schedules from the task's seeds -- all pure functions -- so a task
produces the identical result record in any process, and
:func:`run_sim_tasks` returns records aligned with the input order
regardless of completion order.

Determinism contract, inherited from the simulators: simulations are
byte-identical across serial runs, ``--jobs N`` and cache replay
(``tests/test_serve_sweep.py``).

A result record is the JSON form of its kind's run-record class
(:class:`OpenLoopRunStats`, :class:`ClusterRunStats`,
:class:`TenancyRunStats`).  Decoded, a record's accessors --
``availability``, ``summary``, ``to_metrics`` -- give the live result's
values exactly, and the live results publish their metrics through the
same classes, so experiments report the same numbers whether a run was
simulated inline, pooled, or replayed from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.datasets.loader import make_dataset
from repro.memsim.counters import PerfCountersF
from repro.obs import spans as obs_spans
from repro.records import OMIT_DEFAULT, Pairs, Record, to_dict
from repro.serve.arrivals import bursty_arrivals, poisson_arrivals
from repro.serve.contention import MachineModel
from repro.serve.core import ServiceModel, simulate_open_loop
from repro.serve.faults import FaultConfig
from repro.serve.metrics import LatencySummary, summarize_result
from repro.serve.reconfig import ReconfigSpec
from repro.serve.router import RouterPolicy
from repro.serve.scenario import ScenarioSpec
from repro.serve.telemetry import TelemetryConfig, TimeSeries

__all__ = [
    "OpenLoopTask",
    "ClusterTask",
    "ScenarioTask",
    "OpenLoopRunStats",
    "ClusterRunStats",
    "TenancyRunStats",
    "TenantRunStats",
    "run_sim_tasks",
    "open_loop_task",
    "cluster_task",
    "scenario_task",
    "clear_sim_results",
]

#: Per-process memo of executed/cached records, keyed by task.
_RESULTS: Dict["SimTask", dict] = {}


def clear_sim_results() -> None:
    """Reset the in-process simulation memo (mainly for tests)."""
    _RESULTS.clear()


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenLoopRunStats(Record):
    """An open-loop run record: the latency summary plus the queue
    statistics :meth:`LatencySummary.to_metrics` reads off ``result``."""

    summary: LatencySummary
    max_queue_depth: int
    total_steals: int
    telemetry: Optional[TimeSeries] = field(
        default=None, metadata=OMIT_DEFAULT
    )


@dataclass(frozen=True)
class ShardRunStats:
    """Per-shard counters of a cluster record (mirrors ``ShardStats``)."""

    shard: int
    completed: int
    retries: int
    hedges: int
    crashes: int
    slow_events: int
    max_queue_depth: int


@dataclass
class ClusterRunStats(Record):
    """Everything the experiments read off a :class:`~repro.serve.
    cluster.ClusterResult`, as a JSON record.

    :meth:`to_metrics` is the one publisher of cluster-run metrics:
    :meth:`ClusterResult.to_metrics` calls it too, so a replayed record
    is indistinguishable from a fresh run.
    """

    requests: int
    completed: int
    failed: int
    total_retries: int
    total_hedges: int
    crashes: int
    slow_events: int
    makespan_ns: float
    summary: Optional[LatencySummary]
    shard_stats: List[ShardRunStats]
    #: Reconfig topology outcome (static runs: 1 epoch, initial counts).
    epoch_count: int
    final_shards: int
    final_replicas: int
    telemetry: Optional[TimeSeries] = field(
        default=None, metadata=OMIT_DEFAULT
    )

    @property
    def availability(self) -> float:
        return self.completed / self.requests if self.requests else 1.0

    @property
    def max_queue_depth(self) -> int:
        return max((s.max_queue_depth for s in self.shard_stats), default=0)

    @classmethod
    def from_result(cls, result) -> "ClusterRunStats":
        return cls(
            requests=len(result.records),
            completed=result.completed,
            failed=result.failed,
            total_retries=result.total_retries,
            total_hedges=result.total_hedges,
            crashes=result.crashes,
            slow_events=result.slow_events,
            makespan_ns=result.makespan_ns,
            summary=result.summary() if result.completed else None,
            shard_stats=[
                ShardRunStats(
                    shard=st.shard,
                    completed=st.completed,
                    retries=st.retries,
                    hedges=st.hedges,
                    crashes=st.crashes,
                    slow_events=st.slow_events,
                    max_queue_depth=st.max_queue_depth,
                )
                for st in result.shard_stats
            ],
            epoch_count=result.epoch_count,
            final_shards=result.final_shards,
            final_replicas=result.final_replicas,
            telemetry=result.telemetry,
        )

    def to_metrics(self, registry=None, prefix: str = "serve.cluster") -> None:
        """Publish run counters into an obs metrics registry; the
        availability gauge keeps the worst value over repeated runs."""
        from repro.obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        reg.counter(f"{prefix}.requests").inc(self.requests)
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


@dataclass
class TenantRunStats:
    """One tenant's slice of a scenario record (mirrors ``TenantStats``)."""

    tenant: int
    name: str
    slo_class: str
    p99_slo_ns: Optional[float]
    requests: int
    completed: int
    failed: int
    shed: int
    retries: int
    hedges: int
    summary: Optional[LatencySummary]
    requests_over_slo: int

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def goodput(self) -> float:
        return self.completed / self.requests if self.requests else 1.0

    def slo_met(self) -> Optional[bool]:
        if self.p99_slo_ns is None or self.summary is None:
            return None
        return self.summary.meets(self.p99_slo_ns)


@dataclass
class TenancyRunStats(Record):
    """Everything the experiments read off a :class:`~repro.serve.
    tenancy.TenancyResult`, as a JSON record; :meth:`to_metrics` is the
    one publisher of tenancy metrics (see :class:`ClusterRunStats`)."""

    requests: int
    total_shed: int
    makespan_ns: float
    summary: Optional[LatencySummary]
    tenants: List[TenantRunStats]
    #: Cluster topology outcome (see :class:`ClusterRunStats`); lets
    #: experiments report reconfig transitions off cached records.
    epoch_count: int
    final_shards: int
    final_replicas: int
    telemetry: Optional[TimeSeries] = field(
        default=None, metadata=OMIT_DEFAULT
    )

    def by_name(self, name: str) -> TenantRunStats:
        for ts in self.tenants:
            if ts.name == name:
                return ts
        raise KeyError(name)

    @classmethod
    def from_result(cls, result) -> "TenancyRunStats":
        return cls(
            requests=len(result.cluster.records),
            total_shed=result.total_shed,
            makespan_ns=result.cluster.makespan_ns,
            summary=(
                result.summary() if result.cluster.completed else None
            ),
            tenants=[
                TenantRunStats(
                    tenant=ts.tenant,
                    name=ts.name,
                    slo_class=ts.slo_class,
                    p99_slo_ns=ts.p99_slo_ns,
                    requests=ts.requests,
                    completed=ts.completed,
                    failed=ts.failed,
                    shed=ts.shed,
                    retries=ts.retries,
                    hedges=ts.hedges,
                    summary=ts.summary(),
                    requests_over_slo=ts.requests_over_slo,
                )
                for ts in result.tenants
            ],
            epoch_count=result.cluster.epoch_count,
            final_shards=result.cluster.final_shards,
            final_replicas=result.cluster.final_replicas,
            telemetry=result.telemetry,
        )

    def to_metrics(self, registry=None, prefix: str = "serve.tenancy") -> None:
        """Publish per-tenant latency/violation/shed counters."""
        from repro.obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        reg.counter(f"{prefix}.requests").inc(self.requests)
        reg.counter(f"{prefix}.shed").inc(self.total_shed)
        for ts in self.tenants:
            p = f"{prefix}.tenant.{ts.name}"
            reg.counter(f"{p}.requests").inc(ts.requests)
            reg.counter(f"{p}.completed").inc(ts.completed)
            reg.counter(f"{p}.failed").inc(ts.failed)
            reg.counter(f"{p}.shed").inc(ts.shed)
            reg.counter(f"{p}.retries").inc(ts.retries)
            if ts.summary is not None:
                reg.gauge(f"{p}.latency.p50_ns").set_max(ts.summary.p50_ns)
                reg.gauge(f"{p}.latency.p99_ns").set_max(ts.summary.p99_ns)
            if ts.p99_slo_ns is not None:
                reg.counter(f"{p}.slo.runs").inc()
                reg.counter(f"{p}.slo.requests_over").inc(
                    ts.requests_over_slo
                )
                if ts.slo_met() is False:
                    reg.counter(f"{p}.slo.violations").inc()


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def _service(
    counters: Pairs, fence: bool, machine: MachineModel
) -> ServiceModel:
    return ServiceModel(
        PerfCountersF(**dict(counters)), fence=fence, machine=machine
    )


class _SimTask:
    """What the result store and the runner need of every task kind.

    A task's key fields are its JSON form plus its ``KIND``; a field
    added after task keys were in use (``telemetry``, ``reconfig``) is
    left out while unset, so those keys never moved.  A task's result is
    already its JSON record -- the JSON form of the kind's ``RECORD``
    class -- so :meth:`to_record` is the identity; :meth:`from_record`
    decodes the record as that class (requiring the series when the
    task asked for telemetry) and raises on a record it cannot use.

    Tasks refuse telemetry traces: task records are JSON aggregates
    sized for the persistent cache, and per-attempt traces belong on
    inline ``simulate_*`` calls, not fanned-out sweeps.

    :meth:`run` wraps the kind's :meth:`simulate` in a ``simulate`` span
    carrying ``kind`` and ``n_requests``, so a task's ``cell`` span
    has its simulation inside it.
    """

    KIND = ""
    RECORD = Record

    def __post_init__(self):
        if self.telemetry is not None and self.telemetry.traces:
            raise ValueError(
                "sweep tasks do not support telemetry traces; call the "
                "simulate_* function inline to collect traces"
            )

    def label(self) -> str:
        return self.KIND

    def run(self) -> dict:
        with obs_spans.span(
            "simulate", kind=self.KIND, n_requests=self.n_requests
        ):
            return self.simulate()

    def key_fields(self) -> dict:
        return {"kind": self.KIND, **to_dict(self)}

    def to_record(self, record: dict) -> dict:
        return record

    def from_record(self, record: dict) -> dict:
        stats = self.RECORD.from_dict(record)
        if self.telemetry is not None and stats.telemetry is None:
            raise ValueError("record has no telemetry series")
        return record


@dataclass(frozen=True)
class OpenLoopTask(_SimTask):
    """One single-node open-loop simulation: counters + traffic + cores.

    The service model is rebuilt from the measured per-lookup counters
    (the only measurement fields :class:`ServiceModel` consumes) and the
    arrival process from ``(shape, rate, n, seed)`` -- pure functions,
    so the worker reproduces the parent's inputs exactly.
    """

    counters: Pairs
    fence: bool
    machine: MachineModel
    shape: str  # "poisson" or "bursty"
    rate_per_sec: float
    n_requests: int
    seed: int
    n_cores: int
    telemetry: Optional[TelemetryConfig] = field(
        default=None, metadata=OMIT_DEFAULT
    )

    KIND = "open_loop"
    RECORD = OpenLoopRunStats

    def simulate(self) -> dict:
        service = _service(self.counters, self.fence, self.machine)
        if self.shape == "poisson":
            arrivals = poisson_arrivals(
                self.rate_per_sec, self.n_requests, self.seed
            )
        elif self.shape == "bursty":
            arrivals = bursty_arrivals(
                self.rate_per_sec, self.n_requests, self.seed
            )
        else:
            raise ValueError(f"unknown arrival shape {self.shape!r}")
        result = simulate_open_loop(
            service, arrivals, self.n_cores, telemetry=self.telemetry
        )
        return OpenLoopRunStats(
            summary=summarize_result(result),
            max_queue_depth=result.max_queue_depth,
            total_steals=result.total_steals,
            telemetry=result.telemetry,
        ).to_dict()


@dataclass(frozen=True)
class ClusterTask(_SimTask):
    """One cluster replay: per-shard counters, routing, policy, faults.

    ``lookup_keys`` and ``shard_bounds`` are carried verbatim (the
    selector's public API accepts arbitrary key arrays and shard maps);
    arrivals regenerate from ``(rate, n, seed)``.
    """

    per_shard_counters: Tuple[Pairs, ...]
    fence: bool
    machine: MachineModel
    shard_bounds: Tuple[int, ...]
    lookup_keys: Tuple[int, ...]
    rate_per_sec: float
    n_requests: int
    seed: int
    n_replicas: int
    n_cores: int
    policy: RouterPolicy
    faults: Optional[FaultConfig]
    fault_horizon_ns: Optional[float]
    telemetry: Optional[TelemetryConfig] = field(
        default=None, metadata=OMIT_DEFAULT
    )
    #: Never a trigger-free spec (:func:`cluster_task` normalizes one to
    #: None), so attaching a no-op plan leaves the key as it was.
    reconfig: Optional[ReconfigSpec] = field(
        default=None, metadata=OMIT_DEFAULT
    )

    KIND = "cluster"
    RECORD = ClusterRunStats

    def simulate(self) -> dict:
        from repro.serve.cluster import Cluster, simulate_cluster
        from repro.serve.router import ShardMap

        cluster = Cluster(
            shard_map=ShardMap(list(self.shard_bounds)),
            services=[
                _service(c, self.fence, self.machine)
                for c in self.per_shard_counters
            ],
            n_replicas=self.n_replicas,
            n_cores=self.n_cores,
            policy=self.policy,
            faults=self.faults,
            reconfig=self.reconfig,
        )
        arrivals = poisson_arrivals(
            self.rate_per_sec, self.n_requests, self.seed
        )
        result = simulate_cluster(
            cluster,
            arrivals,
            list(self.lookup_keys),
            fault_horizon_ns=self.fault_horizon_ns,
            telemetry=self.telemetry,
        )
        return ClusterRunStats.from_result(result).to_dict()


@dataclass(frozen=True)
class ScenarioTask(_SimTask):
    """One tenancy scenario run: spec + dataset + shard counters.

    The worker rebuilds the served key array from the dataset identity
    (exactly as measurement cells rebuild datasets from seeds) and the
    shard map as the equal-count split the experiments use, then runs
    :func:`repro.serve.tenancy.simulate_scenario`.
    """

    scenario: ScenarioSpec
    dataset: str
    n_keys: int
    seed: int
    key_bits: int
    per_shard_counters: Tuple[Pairs, ...]
    fence: bool
    machine: MachineModel
    telemetry: Optional[TelemetryConfig] = field(
        default=None, metadata=OMIT_DEFAULT
    )

    KIND = "scenario"
    RECORD = TenancyRunStats

    @property
    def n_requests(self) -> int:
        return self.scenario.n_requests

    def simulate(self) -> dict:
        from repro.serve.router import ShardMap
        from repro.serve.tenancy import simulate_scenario

        ds = make_dataset(
            self.dataset, self.n_keys, seed=self.seed, key_bits=self.key_bits
        )
        services = [
            _service(c, self.fence, self.machine)
            for c in self.per_shard_counters
        ]
        shard_map = ShardMap.from_keys(ds.keys, self.scenario.topology.n_shards)
        result = simulate_scenario(
            self.scenario,
            services,
            ds.keys,
            shard_map=shard_map,
            telemetry=self.telemetry,
        )
        return TenancyRunStats.from_result(result).to_dict()


SimTask = Union[OpenLoopTask, ClusterTask, ScenarioTask]


def open_loop_task(
    measurement,
    rate_per_sec: float,
    n_requests: int,
    seed: int,
    n_cores: int,
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    shape: str = "poisson",
    telemetry: Optional[TelemetryConfig] = None,
) -> OpenLoopTask:
    """The task one :func:`~repro.serve.core.simulate_open_loop` run is."""
    from repro.bench.cells import freeze_counters

    return OpenLoopTask(
        counters=freeze_counters(measurement.counters),
        fence=fence,
        machine=machine,
        shape=shape,
        rate_per_sec=rate_per_sec,
        n_requests=n_requests,
        seed=seed,
        n_cores=n_cores,
        telemetry=telemetry,
    )


def cluster_task(
    per_shard_measurements: Sequence,
    shard_map,
    lookup_keys: Sequence[int],
    rate_per_sec: float,
    n_requests: int,
    seed: int,
    n_replicas: int,
    n_cores: int,
    policy: RouterPolicy,
    faults: Optional[FaultConfig],
    fault_horizon_ns: Optional[float],
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
    reconfig: Optional[ReconfigSpec] = None,
) -> ClusterTask:
    """The task one :func:`~repro.serve.cluster.simulate_cluster` run is.

    A ``reconfig`` that is None *or has no triggers* is stored as None,
    so attaching a no-op spec never perturbs cache keys.
    """
    from repro.bench.cells import freeze_counters

    return ClusterTask(
        per_shard_counters=tuple(
            freeze_counters(m.counters) for m in per_shard_measurements
        ),
        fence=fence,
        machine=machine,
        shard_bounds=tuple(shard_map.lower_bounds),
        lookup_keys=tuple(int(k) for k in lookup_keys),
        rate_per_sec=rate_per_sec,
        n_requests=n_requests,
        seed=seed,
        n_replicas=n_replicas,
        n_cores=n_cores,
        policy=policy,
        faults=faults,
        fault_horizon_ns=fault_horizon_ns,
        telemetry=telemetry,
        reconfig=reconfig if reconfig is not None and reconfig.enabled else None,
    )


def scenario_task(
    spec: ScenarioSpec,
    dataset: str,
    n_keys: int,
    seed: int,
    per_shard_measurements: Sequence,
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    key_bits: int = 64,
    telemetry: Optional[TelemetryConfig] = None,
) -> ScenarioTask:
    """The task one :func:`~repro.serve.tenancy.simulate_scenario` run is."""
    from repro.bench.cells import freeze_counters

    return ScenarioTask(
        scenario=spec,
        dataset=dataset,
        n_keys=n_keys,
        seed=seed,
        key_bits=key_bits,
        per_shard_counters=tuple(
            freeze_counters(m.counters) for m in per_shard_measurements
        ),
        fence=fence,
        machine=machine,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def run_sim_tasks(
    tasks: Sequence[SimTask],
    jobs: Optional[int] = None,
    cache=None,
) -> List[dict]:
    """Resolve every task; return records aligned with the input order.

    The same memo -> cache -> execute ladder as
    :func:`repro.bench.parallel.run_cells`, over this module's memo
    ``_RESULTS`` and the persistent ``cache`` (a
    :class:`~repro.bench.cache.MeasurementCache`; None keeps results in
    the memo only).  ``jobs`` follows
    :func:`~repro.bench.parallel.resolve_jobs`; a pool's ``map``
    preserves dispatch order, so completion order never leaks into
    results, memo insertion, or cache writes.

    Every call also publishes its resolution split to the global obs
    metrics registry (``serve.sweep.cache.{hits,misses,executed}`` for
    the persistent cache, ``serve.sweep.memo.hits`` for the in-process
    memo), so a warm sweep is distinguishable from a cold one in
    ``metrics.json``.
    """
    # Imported here: repro.bench imports the serving experiments, which
    # import this module.
    from repro.bench.parallel import _resolve
    from repro.obs.metrics import get_registry

    records, stats = _resolve(tasks, jobs, cache, _RESULTS)
    reg = get_registry()
    reg.counter("serve.sweep.memo.hits").inc(stats.memo_hits)
    reg.counter("serve.sweep.cache.hits").inc(stats.cache_hits)
    if cache is not None:
        # Misses against the *persistent* cache: looked up, not found.
        reg.counter("serve.sweep.cache.misses").inc(stats.executed)
    reg.counter("serve.sweep.cache.executed").inc(stats.executed)
    return records
