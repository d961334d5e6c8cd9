"""Parallel, cached simulation sweeps for the serving experiments.

The measurement grid already flows through picklable cells, a process
pool and a persistent cache (:mod:`repro.bench.parallel`); this module
gives the serving simulations the same treatment.  Each simulation an
experiment wants -- one open-loop run, one cluster replay, one tenancy
scenario -- is captured as a frozen *task* dataclass of plain scalars:
hashable (in-process memo), picklable (``--jobs`` fan-out) and JSON-able
(:func:`repro.bench.cache.cache_key` content keys for the persistent
:class:`~repro.bench.cache.MeasurementCache`, which stores tasks beside
measurement cells).  Workers rebuild arrival processes, request keys,
shard maps and fault schedules from the task's seeds -- all pure
functions -- so a task produces the identical result record in any
process, and :func:`run_sim_tasks` returns records aligned with the
input order regardless of completion order.

Determinism contract, inherited from the simulators: simulations are
byte-identical across serial runs, ``--jobs N`` and cache replay
(``tests/test_serve_sweep.py``).

Result records are plain dicts of JSON scalars.  :class:`ClusterRunStats`
and :class:`TenancyRunStats` wrap the cluster/tenancy records back into
objects whose accessors -- ``availability``, ``summary``, ``to_metrics``
-- reproduce the originals' values exactly, so experiments publish the
same metrics whether a run was simulated inline, pooled, or replayed
from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.datasets.loader import make_dataset
from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import bursty_arrivals, poisson_arrivals
from repro.serve.contention import MachineModel
from repro.serve.core import ServiceModel, simulate_open_loop
from repro.serve.metrics import LatencySummary, summarize_result
from repro.serve.telemetry import TelemetryConfig, TimeSeries

__all__ = [
    "OpenLoopTask",
    "ClusterTask",
    "ScenarioTask",
    "SimStats",
    "ClusterRunStats",
    "TenancyRunStats",
    "TenantRunStats",
    "run_sim_tasks",
    "open_loop_task",
    "cluster_task",
    "scenario_task",
    "freeze_machine",
    "freeze_telemetry",
    "clear_sim_results",
]

#: Per-process memo of executed/cached records, keyed by task.
_RESULTS: Dict["SimTask", dict] = {}


def clear_sim_results() -> None:
    """Reset the in-process simulation memo (mainly for tests)."""
    _RESULTS.clear()


# ---------------------------------------------------------------------------
# freezing helpers: model objects <-> tuples of JSON scalars
# ---------------------------------------------------------------------------


def freeze_machine(machine: MachineModel) -> Tuple[Tuple[str, float], ...]:
    """Canonical, hashable form of a :class:`MachineModel`."""
    return (
        ("cores", machine.cores),
        ("threads", machine.threads),
        ("ht_gain", machine.ht_gain),
        ("dram_bandwidth_bytes", machine.dram_bandwidth_bytes),
    )


def _thaw_machine(frozen: Tuple[Tuple[str, float], ...]) -> MachineModel:
    d = dict(frozen)
    return MachineModel(
        cores=int(d["cores"]),
        threads=int(d["threads"]),
        ht_gain=float(d["ht_gain"]),
        dram_bandwidth_bytes=float(d["dram_bandwidth_bytes"]),
    )


def _freeze_policy(policy) -> Tuple[Tuple[str, object], ...]:
    return (
        ("hedge_after_ns", policy.hedge_after_ns),
        ("max_attempts", policy.max_attempts),
        ("backoff_base_ns", policy.backoff_base_ns),
        ("backoff_cap_ns", policy.backoff_cap_ns),
        ("batch_window_ns", policy.batch_window_ns),
    )


def _freeze_faults(faults) -> Optional[Tuple[Tuple[str, object], ...]]:
    if faults is None:
        return None
    return (
        ("crash_mttf_ns", faults.crash_mttf_ns),
        ("crash_mttr_ns", faults.crash_mttr_ns),
        ("slow_mttf_ns", faults.slow_mttf_ns),
        ("slow_mttr_ns", faults.slow_mttr_ns),
        ("slow_factor", faults.slow_factor),
        ("seed", faults.seed),
    )


def _service_from_frozen(
    counters: Tuple[Tuple[str, float], ...],
    fence: bool,
    machine: MachineModel,
) -> ServiceModel:
    return ServiceModel(
        PerfCountersF(**dict(counters)), fence=fence, machine=machine
    )


def _pairs(value):
    """JSON form of a frozen pair tuple (or None)."""
    return None if value is None else dict(value)


def freeze_telemetry(
    config: Optional[TelemetryConfig],
) -> Optional[Tuple[Tuple[str, object], ...]]:
    """Canonical, hashable form of a :class:`TelemetryConfig`.

    Traces are refused: task records are JSON aggregates sized for the
    persistent cache, and per-attempt traces belong on inline
    ``simulate_*`` calls, not fanned-out sweeps.
    """
    if config is None:
        return None
    if config.traces:
        raise ValueError(
            "sweep tasks do not support telemetry traces; call the "
            "simulate_* function inline to collect traces"
        )
    return (
        ("window_ns", config.window_ns),
        ("slo_p99_ns", config.slo_p99_ns),
    )


def _thaw_telemetry(
    frozen: Optional[Tuple[Tuple[str, object], ...]],
) -> Optional[TelemetryConfig]:
    if frozen is None:
        return None
    d = dict(frozen)
    return TelemetryConfig(
        window_ns=float(d["window_ns"]),
        slo_p99_ns=(
            None if d["slo_p99_ns"] is None else float(d["slo_p99_ns"])
        ),
    )


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


class _SimTask:
    """What the result store and the runner need of every task kind.

    A task's result is already its JSON record, so :meth:`to_record` is
    the identity; :meth:`from_record` decodes every field callers read
    (the kind's :meth:`_decode`, plus the telemetry series when the task
    asked for one) and raises on a record that lacks any of them.
    """

    KIND = ""

    def label(self) -> str:
        return self.KIND

    def to_record(self, record: dict) -> dict:
        return record

    def from_record(self, record: dict) -> dict:
        self._decode(record)
        if self.telemetry is not None:
            TimeSeries.from_dict(record["telemetry"])
        return record


@dataclass(frozen=True)
class OpenLoopTask(_SimTask):
    """One single-node open-loop simulation: counters + traffic + cores.

    The service model is rebuilt from the measured per-lookup counters
    (the only measurement fields :class:`ServiceModel` consumes) and the
    arrival process from ``(shape, rate, n, seed)`` -- pure functions,
    so the worker reproduces the parent's inputs exactly.
    """

    counters: Tuple[Tuple[str, float], ...]
    fence: bool
    machine: Tuple[Tuple[str, float], ...]
    shape: str  # "poisson" or "bursty"
    rate_per_sec: float
    n_requests: int
    seed: int
    n_cores: int
    #: Frozen :class:`TelemetryConfig` (via :func:`freeze_telemetry`).
    #: None omits the key-fields entry entirely, so telemetry-off task
    #: keys are bit-for-bit what they were before telemetry existed.
    telemetry: Optional[Tuple[Tuple[str, object], ...]] = None

    KIND = "open_loop"

    def _decode(self, record: dict) -> None:
        open_loop_summary(record)

    def key_fields(self) -> dict:
        fields = {
            "kind": self.KIND,
            "counters": dict(self.counters),
            "fence": self.fence,
            "machine": dict(self.machine),
            "shape": self.shape,
            "rate_per_sec": self.rate_per_sec,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "n_cores": self.n_cores,
        }
        if self.telemetry is not None:
            fields["telemetry"] = _pairs(self.telemetry)
        return fields

    def run(self) -> dict:
        service = _service_from_frozen(
            self.counters, self.fence, _thaw_machine(self.machine)
        )
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
            service,
            arrivals,
            self.n_cores,
            telemetry=_thaw_telemetry(self.telemetry),
        )
        summary = summarize_result(result)
        record = {
            "summary": summary.to_dict(),
            "max_queue_depth": result.max_queue_depth,
            "total_steals": result.total_steals,
        }
        if result.telemetry is not None:
            record["telemetry"] = result.telemetry.to_dict()
        return record


@dataclass(frozen=True)
class ClusterTask(_SimTask):
    """One cluster replay: per-shard counters, routing, policy, faults.

    ``lookup_keys`` and ``shard_bounds`` are carried verbatim (the
    selector's public API accepts arbitrary key arrays and shard maps);
    arrivals regenerate from ``(rate, n, seed)``.
    """

    per_shard_counters: Tuple[Tuple[Tuple[str, float], ...], ...]
    fence: bool
    machine: Tuple[Tuple[str, float], ...]
    shard_bounds: Tuple[int, ...]
    lookup_keys: Tuple[int, ...]
    rate_per_sec: float
    n_requests: int
    seed: int
    n_replicas: int
    n_cores: int
    policy: Tuple[Tuple[str, object], ...]
    faults: Optional[Tuple[Tuple[str, object], ...]]
    fault_horizon_ns: Optional[float]
    telemetry: Optional[Tuple[Tuple[str, object], ...]] = None
    #: Canonical :class:`~repro.serve.reconfig.ReconfigSpec` JSON; None
    #: (or a trigger-free spec, normalized away by :func:`cluster_task`)
    #: leaves the cache key exactly as before the field existed.
    reconfig: Optional[str] = None

    KIND = "cluster"

    def _decode(self, record: dict) -> None:
        ClusterRunStats.from_record(record)

    def key_fields(self) -> dict:
        import json

        fields = {
            "kind": self.KIND,
            "per_shard_counters": [dict(c) for c in self.per_shard_counters],
            "fence": self.fence,
            "machine": dict(self.machine),
            "shard_bounds": list(self.shard_bounds),
            "lookup_keys": list(self.lookup_keys),
            "rate_per_sec": self.rate_per_sec,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "n_replicas": self.n_replicas,
            "n_cores": self.n_cores,
            "policy": _pairs(self.policy),
            "faults": _pairs(self.faults),
            "fault_horizon_ns": self.fault_horizon_ns,
        }
        if self.telemetry is not None:
            fields["telemetry"] = _pairs(self.telemetry)
        if self.reconfig is not None:
            fields["reconfig"] = json.loads(self.reconfig)
        return fields

    def run(self) -> dict:
        from repro.serve.cluster import Cluster, simulate_cluster
        from repro.serve.faults import FaultConfig
        from repro.serve.reconfig import ReconfigSpec
        from repro.serve.router import RouterPolicy, ShardMap

        machine = _thaw_machine(self.machine)
        cluster = Cluster(
            shard_map=ShardMap(list(self.shard_bounds)),
            services=[
                _service_from_frozen(c, self.fence, machine)
                for c in self.per_shard_counters
            ],
            n_replicas=self.n_replicas,
            n_cores=self.n_cores,
            policy=RouterPolicy(**dict(self.policy)),
            faults=(
                None
                if self.faults is None
                else FaultConfig(**dict(self.faults))
            ),
            reconfig=(
                None
                if self.reconfig is None
                else ReconfigSpec.from_json(self.reconfig)
            ),
        )
        arrivals = poisson_arrivals(
            self.rate_per_sec, self.n_requests, self.seed
        )
        result = simulate_cluster(
            cluster,
            arrivals,
            list(self.lookup_keys),
            fault_horizon_ns=self.fault_horizon_ns,
            telemetry=_thaw_telemetry(self.telemetry),
        )
        record = ClusterRunStats.from_result(result).to_record()
        if result.telemetry is not None:
            record["telemetry"] = result.telemetry.to_dict()
        return record


@dataclass(frozen=True)
class ScenarioTask(_SimTask):
    """One tenancy scenario run: spec JSON + dataset + shard counters.

    The worker rebuilds the served key array from the dataset identity
    (exactly as measurement cells rebuild datasets from seeds) and the
    shard map as the equal-count split the experiments use, then runs
    :func:`repro.serve.tenancy.simulate_scenario`.
    """

    spec_json: str
    dataset: str
    n_keys: int
    seed: int
    key_bits: int
    per_shard_counters: Tuple[Tuple[Tuple[str, float], ...], ...]
    fence: bool
    machine: Tuple[Tuple[str, float], ...]
    telemetry: Optional[Tuple[Tuple[str, object], ...]] = None

    KIND = "scenario"

    def _decode(self, record: dict) -> None:
        TenancyRunStats.from_record(record)

    def key_fields(self) -> dict:
        import json

        fields = {
            "kind": self.KIND,
            "scenario": json.loads(self.spec_json),
            "dataset": self.dataset,
            "n_keys": self.n_keys,
            "seed": self.seed,
            "key_bits": self.key_bits,
            "per_shard_counters": [dict(c) for c in self.per_shard_counters],
            "fence": self.fence,
            "machine": dict(self.machine),
        }
        if self.telemetry is not None:
            fields["telemetry"] = _pairs(self.telemetry)
        return fields

    def run(self) -> dict:
        from repro.serve.router import ShardMap
        from repro.serve.scenario import ScenarioSpec
        from repro.serve.tenancy import simulate_scenario

        spec = ScenarioSpec.from_json(self.spec_json)
        ds = make_dataset(
            self.dataset, self.n_keys, seed=self.seed, key_bits=self.key_bits
        )
        machine = _thaw_machine(self.machine)
        services = [
            _service_from_frozen(c, self.fence, machine)
            for c in self.per_shard_counters
        ]
        shard_map = ShardMap.from_keys(ds.keys, spec.topology.n_shards)
        result = simulate_scenario(
            spec,
            services,
            ds.keys,
            shard_map=shard_map,
            telemetry=_thaw_telemetry(self.telemetry),
        )
        record = TenancyRunStats.from_result(result).to_record()
        if result.telemetry is not None:
            record["telemetry"] = result.telemetry.to_dict()
        return record


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
        machine=freeze_machine(machine),
        shape=shape,
        rate_per_sec=rate_per_sec,
        n_requests=n_requests,
        seed=seed,
        n_cores=n_cores,
        telemetry=freeze_telemetry(telemetry),
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
    policy,
    faults,
    fault_horizon_ns: Optional[float],
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
    reconfig=None,
) -> ClusterTask:
    """The task one :func:`~repro.serve.cluster.simulate_cluster` run is.

    A ``reconfig`` that is None *or has no triggers* freezes to None, so
    attaching a no-op spec never perturbs cache keys.
    """
    from repro.bench.cells import freeze_counters

    return ClusterTask(
        per_shard_counters=tuple(
            freeze_counters(m.counters) for m in per_shard_measurements
        ),
        fence=fence,
        machine=freeze_machine(machine),
        shard_bounds=tuple(shard_map.lower_bounds),
        lookup_keys=tuple(int(k) for k in lookup_keys),
        rate_per_sec=rate_per_sec,
        n_requests=n_requests,
        seed=seed,
        n_replicas=n_replicas,
        n_cores=n_cores,
        policy=_freeze_policy(policy),
        faults=_freeze_faults(faults),
        fault_horizon_ns=fault_horizon_ns,
        telemetry=freeze_telemetry(telemetry),
        reconfig=(
            None
            if reconfig is None or not reconfig.enabled
            else reconfig.to_json()
        ),
    )


def scenario_task(
    spec,
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
        spec_json=spec.to_json(),
        dataset=dataset,
        n_keys=n_keys,
        seed=seed,
        key_bits=key_bits,
        per_shard_counters=tuple(
            freeze_counters(m.counters) for m in per_shard_measurements
        ),
        fence=fence,
        machine=freeze_machine(machine),
        telemetry=freeze_telemetry(telemetry),
    )


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimStats:
    """Queue statistics of an open-loop run record, shaped for
    :meth:`LatencySummary.to_metrics`'s ``result`` parameter."""

    max_queue_depth: int
    total_steals: int


def open_loop_summary(record: dict) -> Tuple[LatencySummary, SimStats]:
    """(summary, queue stats) view of an :class:`OpenLoopTask` record."""
    return (
        LatencySummary.from_dict(record["summary"]),
        SimStats(
            max_queue_depth=int(record["max_queue_depth"]),
            total_steals=int(record["total_steals"]),
        ),
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
class ClusterRunStats:
    """Everything the experiments read off a :class:`~repro.serve.
    cluster.ClusterResult`, reconstructible from a cached JSON record.

    Accessors and :meth:`to_metrics` reproduce the original result's
    values exactly (same fields, same float arithmetic, same counter
    names), so a replayed record is indistinguishable from a fresh run.
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
    #: ``final_replicas`` 0 marks a pre-reconfig record, whose replica
    #: count is unrecoverable; the gauge is skipped for those.
    epoch_count: int = 1
    final_shards: int = 0
    final_replicas: int = 0

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
        )

    def to_record(self) -> dict:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "total_retries": self.total_retries,
            "total_hedges": self.total_hedges,
            "crashes": self.crashes,
            "slow_events": self.slow_events,
            "makespan_ns": self.makespan_ns,
            "summary": (
                None if self.summary is None else self.summary.to_dict()
            ),
            "shard_stats": [
                {
                    "shard": st.shard,
                    "completed": st.completed,
                    "retries": st.retries,
                    "hedges": st.hedges,
                    "crashes": st.crashes,
                    "slow_events": st.slow_events,
                    "max_queue_depth": st.max_queue_depth,
                }
                for st in self.shard_stats
            ],
            "epoch_count": self.epoch_count,
            "final_shards": self.final_shards,
            "final_replicas": self.final_replicas,
        }

    @classmethod
    def from_record(cls, record: dict) -> "ClusterRunStats":
        summary = record["summary"]
        return cls(
            requests=int(record["requests"]),
            completed=int(record["completed"]),
            failed=int(record["failed"]),
            total_retries=int(record["total_retries"]),
            total_hedges=int(record["total_hedges"]),
            crashes=int(record["crashes"]),
            slow_events=int(record["slow_events"]),
            makespan_ns=float(record["makespan_ns"]),
            summary=(
                None if summary is None else LatencySummary.from_dict(summary)
            ),
            shard_stats=[
                ShardRunStats(
                    shard=int(st["shard"]),
                    completed=int(st["completed"]),
                    retries=int(st["retries"]),
                    hedges=int(st["hedges"]),
                    crashes=int(st["crashes"]),
                    slow_events=int(st["slow_events"]),
                    max_queue_depth=int(st["max_queue_depth"]),
                )
                for st in record["shard_stats"]
            ],
            # Records written before the reconfig fields existed fall
            # back to "static run" (and 0 = unknown replica count).
            epoch_count=int(record.get("epoch_count", 1)),
            final_shards=int(
                record.get("final_shards", len(record["shard_stats"]))
            ),
            final_replicas=int(record.get("final_replicas", 0)),
        )

    def to_metrics(self, registry=None, prefix: str = "serve.cluster") -> None:
        """Mirror of :meth:`ClusterResult.to_metrics`, same names/values."""
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
class TenancyRunStats:
    """Everything the experiments read off a :class:`~repro.serve.
    tenancy.TenancyResult`, reconstructible from a cached JSON record."""

    requests: int
    total_shed: int
    makespan_ns: float
    summary: Optional[LatencySummary]
    tenants: List[TenantRunStats] = field(default_factory=list)
    #: Cluster topology outcome (see :class:`ClusterRunStats`); lets
    #: experiments report reconfig transitions off cached records.
    epoch_count: int = 1
    final_shards: int = 0
    final_replicas: int = 0

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
        )

    def to_record(self) -> dict:
        return {
            "requests": self.requests,
            "total_shed": self.total_shed,
            "makespan_ns": self.makespan_ns,
            "summary": (
                None if self.summary is None else self.summary.to_dict()
            ),
            "tenants": [
                {
                    "tenant": ts.tenant,
                    "name": ts.name,
                    "slo_class": ts.slo_class,
                    "p99_slo_ns": ts.p99_slo_ns,
                    "requests": ts.requests,
                    "completed": ts.completed,
                    "failed": ts.failed,
                    "shed": ts.shed,
                    "retries": ts.retries,
                    "hedges": ts.hedges,
                    "summary": (
                        None if ts.summary is None else ts.summary.to_dict()
                    ),
                    "requests_over_slo": ts.requests_over_slo,
                }
                for ts in self.tenants
            ],
            "epoch_count": self.epoch_count,
            "final_shards": self.final_shards,
            "final_replicas": self.final_replicas,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TenancyRunStats":
        summary = record["summary"]
        return cls(
            requests=int(record["requests"]),
            total_shed=int(record["total_shed"]),
            makespan_ns=float(record["makespan_ns"]),
            summary=(
                None if summary is None else LatencySummary.from_dict(summary)
            ),
            tenants=[
                TenantRunStats(
                    tenant=int(t["tenant"]),
                    name=t["name"],
                    slo_class=t["slo_class"],
                    p99_slo_ns=(
                        None
                        if t["p99_slo_ns"] is None
                        else float(t["p99_slo_ns"])
                    ),
                    requests=int(t["requests"]),
                    completed=int(t["completed"]),
                    failed=int(t["failed"]),
                    shed=int(t["shed"]),
                    retries=int(t["retries"]),
                    hedges=int(t["hedges"]),
                    summary=(
                        None
                        if t["summary"] is None
                        else LatencySummary.from_dict(t["summary"])
                    ),
                    requests_over_slo=int(t["requests_over_slo"]),
                )
                for t in record["tenants"]
            ],
            epoch_count=int(record.get("epoch_count", 1)),
            final_shards=int(record.get("final_shards", 0)),
            final_replicas=int(record.get("final_replicas", 0)),
        )

    def to_metrics(self, registry=None, prefix: str = "serve.tenancy") -> None:
        """Mirror of :meth:`TenancyResult.to_metrics`, same names/values."""
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
