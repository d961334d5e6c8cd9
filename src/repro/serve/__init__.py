"""`repro.serve`: discrete-event serving simulation with tail-latency SLOs.

The benchmark's figures summarize lookups as steady-state means; this
subsystem asks the serving question instead: given an arrival process and
a modelled multi-core server, what latency distribution does each index
deliver, and which index should serve a given load under a
(p99, memory-budget) SLO?

* :mod:`repro.serve.arrivals` -- seeded open-loop arrival processes
  (Poisson, bursty) and closed-loop think times.
* :mod:`repro.serve.contention` -- the machine + memory-contention model
  (shared with Figure 16, which is now a thin client of it).
* :mod:`repro.serve.core` -- the event loop: per-core FIFO queues, work
  stealing, contention-frozen service times, one batch-sorted event
  queue; see ``docs/serving.md``.
* :mod:`repro.serve.metrics` -- p50/p95/p99/p99.9 accounting.
* :mod:`repro.serve.selector` -- SLO-aware index selection (single-node
  and cluster-wide).
* :mod:`repro.serve.cluster` -- sharded, replicated cluster simulation
  with seeded fault injection (:mod:`repro.serve.faults`) and a
  retry/hedge/batch router (:mod:`repro.serve.router`); see
  ``docs/cluster.md``.
* :mod:`repro.serve.scenario` / :mod:`repro.serve.tenancy` /
  :mod:`repro.serve.trace` -- declarative multi-tenant scenario specs,
  admission control with SLO-class load shedding, and trace
  record-replay; see ``docs/tenancy.md``.
* :mod:`repro.serve.reconfig` -- live reconfiguration under traffic:
  epoch-versioned shard splits/merges with key-range handoff,
  background rebuild-and-swap, and a reactive autoscaler, all as
  deterministic as the fault schedules; see ``docs/reconfig.md``.
* :mod:`repro.serve.sweep` -- simulations as picklable tasks: process-
  pool fan-out with a persistent result cache.
* :mod:`repro.serve.telemetry` -- deterministic in-run telemetry:
  windowed time-series, opt-in request traces rendered as ``repro.obs``
  spans, and SLO burn-rate accounting; byte-identical serial vs
  ``--jobs N``; see ``docs/observability.md``.

Driven end-to-end by the ``ext_serving``, ``ext_cluster`` and
``ext_tenants`` experiments (``python -m repro.bench --experiment
ext_tenants``).
"""

from repro.serve.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
    think_times_ns,
)
from repro.serve.contention import (
    MachineModel,
    ThroughputPoint,
    saturation_throughput,
    service_time_ns,
    thread_sweep,
    throughput,
)
from repro.serve.core import (
    Request,
    ServiceModel,
    ServingResult,
    simulate_closed_loop,
    simulate_open_loop,
)
from repro.serve.cluster import Cluster, ClusterResult, simulate_cluster
from repro.serve.faults import FaultConfig, FaultEvent, fault_schedule
from repro.serve.metrics import LatencySummary, summarize, summarize_result
from repro.serve.reconfig import (
    AutoscaleSpec,
    MergeSpec,
    RebuildSpec,
    ReconfigSpec,
    ShardEpoch,
    SplitSpec,
    autoscale_decision,
    reconfig_schedule,
)
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    KeySpaceSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    single_tenant_spec,
)
from repro.serve.selector import (
    Candidate,
    ClusterCandidate,
    ClusterSelection,
    Selection,
    cluster_selection_from_candidates,
    select_cluster_under_slo,
    select_under_slo,
    selection_from_candidates,
)
from repro.serve.sweep import (
    ClusterRunStats,
    ClusterTask,
    OpenLoopRunStats,
    OpenLoopTask,
    ScenarioTask,
    TenancyRunStats,
    cluster_task,
    open_loop_task,
    run_sim_tasks,
    scenario_task,
)
from repro.serve.telemetry import (
    AttemptTrace,
    BurnRateReport,
    BurnWindow,
    TelemetryConfig,
    TimeSeries,
    WindowStats,
    burn_rate_report,
    spans_from_traces,
)
from repro.serve.tenancy import (
    TenancyResult,
    TenantStats,
    replay_trace,
    should_shed,
    simulate_scenario,
)
from repro.serve.trace import TenantTrace

__all__ = [
    "MachineModel",
    "ThroughputPoint",
    "throughput",
    "thread_sweep",
    "saturation_throughput",
    "service_time_ns",
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "think_times_ns",
    "ServiceModel",
    "Request",
    "ServingResult",
    "simulate_open_loop",
    "simulate_closed_loop",
    "LatencySummary",
    "summarize",
    "summarize_result",
    "Candidate",
    "Selection",
    "select_under_slo",
    "selection_from_candidates",
    "Cluster",
    "ClusterResult",
    "simulate_cluster",
    "FaultConfig",
    "FaultEvent",
    "fault_schedule",
    "ReconfigSpec",
    "SplitSpec",
    "MergeSpec",
    "RebuildSpec",
    "AutoscaleSpec",
    "ShardEpoch",
    "reconfig_schedule",
    "autoscale_decision",
    "RouterPolicy",
    "ShardMap",
    "request_keys",
    "ClusterCandidate",
    "ClusterSelection",
    "cluster_selection_from_candidates",
    "select_cluster_under_slo",
    "ScenarioSpec",
    "TenantSpec",
    "ArrivalSpec",
    "KeySpaceSpec",
    "TopologySpec",
    "AdmissionSpec",
    "single_tenant_spec",
    "TenantTrace",
    "TenancyResult",
    "TenantStats",
    "should_shed",
    "simulate_scenario",
    "replay_trace",
    "OpenLoopTask",
    "ClusterTask",
    "ScenarioTask",
    "OpenLoopRunStats",
    "ClusterRunStats",
    "TenancyRunStats",
    "open_loop_task",
    "cluster_task",
    "scenario_task",
    "run_sim_tasks",
    "TelemetryConfig",
    "TimeSeries",
    "WindowStats",
    "AttemptTrace",
    "BurnWindow",
    "BurnRateReport",
    "burn_rate_report",
    "spans_from_traces",
]
