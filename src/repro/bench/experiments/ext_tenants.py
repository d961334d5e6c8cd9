"""Extension: multi-tenant serving with admission control and shedding.

``ext_cluster`` serves one workload per cluster; production serves many.
This experiment drives the tenancy subsystem (:mod:`repro.serve.scenario`
/ :mod:`repro.serve.tenancy`) end to end: per-shard index builds flow
through the same measurement cells, persistent cache and ``--jobs`` pool
as ``ext_cluster`` (the grids overlap, so the caches are shared), and
declarative :class:`~repro.serve.scenario.ScenarioSpec` values -- not
experiment code -- describe the scenarios.  Three tables per dataset:

* a **mixed-tenant day**: gold (diurnal traffic, whole key space, p99
  SLO), silver (bursty, upper half) and bronze (flash crowd, Zipf-hot
  lower half) sharing the cluster; per-tenant goodput, shed counts and
  tail latencies;
* a **flash-crowd admission table**: the same gold+bronze overload run
  with admission control off vs on -- off, the bronze spike destroys
  gold's p99; on, bronze absorbs the rejections and gold's p99 holds
  within its SLO (the headline claim, pinned by the CI smoke);
* a **record-replay table**: spec and trace content keys
  (:func:`repro.bench.cache.scenario_key`), plus proof that a
  serialize-reload-replay round trip reproduces the run identically;
* a **gold burn-rate table**: the flash-crowd run re-simulated with
  :class:`repro.serve.telemetry.TelemetryConfig` attached (admission
  off vs on), reporting gold's per-window SLO burn rate and error-budget
  exhaustion via :func:`repro.serve.telemetry.burn_rate_report`; the
  admission-on run also records request traces, published as
  ``repro.obs`` spans for the ``timeline``/``summary`` CLIs.

Everything downstream of the cells is deterministic replay, as for every
serving experiment: specs and traces are pure data, shedding decisions
are pure functions of (config, queue state), so the tables are
bit-identical across serial runs, ``--jobs N``, and cache replay.

The flash-crowd comparisons and the depth sweep route through
:class:`repro.serve.sweep.ScenarioTask` batches (``--jobs`` processes,
persistent result cache); the mixed-tenant day runs inline because
the record-replay table needs its actual :class:`TenantTrace`, not just
the summary record.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bench.cache import scenario_key
from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments.common import get_active_cache, sweep_cells
from repro.bench.experiments.ext_cluster import (
    N_REPLICAS,
    N_SHARDS,
    SIM_CORES,
    _n_requests,
    cluster_capacity_per_sec,
    shard_measurements,
    shard_settings,
)
from repro.bench.harness import Measurement
from repro.bench.report import format_table
from repro.datasets.loader import make_dataset
from repro.serve.contention import MachineModel
from repro.serve.core import ServiceModel
from repro.serve.router import ShardMap
from repro.serve.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    KeySpaceSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
)
from repro.serve.sweep import TenancyRunStats, run_sim_tasks, scenario_task
from repro.serve.telemetry import TelemetryConfig, burn_rate_report, publish
from repro.serve.tenancy import TenancyResult, replay_trace, simulate_scenario
from repro.serve.trace import TenantTrace

#: Index families tried in order; the first one present in the settings
#: serves every tenant (tenancy varies workloads, not index families --
#: ``ext_cluster`` already sweeps families).
INDEX_PREFERENCE = ("RMI", "PGM", "BTree")
DATASETS = ["amzn", "osm"]
#: Baseline offered load (all tenants summed, spike excluded) as a
#: fraction of the family's modelled cluster capacity.
LOAD_FRACTION = 0.55
#: Baseline load split over the day's tenants (sums to 1).
DAY_SHARES = {"gold": 0.4, "silver": 0.3, "bronze": 0.3}
#: Gold's p99 SLO as a multiple of the weakest shard's fully-contended
#: service time (queueing headroom, not raw service).  Tight enough
#: that an unchecked flash crowd decisively blows it at every
#: measurement scale, loose enough that admission-controlled runs clear
#: it with margin.
GOLD_SLO_FACTOR = 8.0
#: Flash-crowd intensity: bronze's spike arrives at this multiple of its
#: baseline rate, overloading the cluster while it lasts.
SPIKE_FACTOR = 16.0
#: Admission thresholds (per-shard backlog: queued + in service over
#: all replicas).  Gold is never shed.
BRONZE_DEPTH = 6
SILVER_DEPTH = 18
#: Bronze-depth sweep for the SVG figures.
DEPTH_SWEEP = (2, 4, 6, 12, 24, 48)
#: Tumbling windows per telemetry run.
TELEMETRY_WINDOWS = 12
#: Gold's error budget for the burn-rate table: at most this fraction
#: of gold requests per window may miss the p99 SLO (or fail) before
#: the budget burns at rate 1.
GOLD_BUDGET_FRACTION = 0.01

TOPOLOGY = TopologySpec(
    n_shards=N_SHARDS, n_replicas=N_REPLICAS, n_cores=SIM_CORES
)
ADMISSION = AdmissionSpec(
    enabled=True, bronze_depth=BRONZE_DEPTH, silver_depth=SILVER_DEPTH
)


def _datasets(settings: BenchSettings) -> List[str]:
    return [d for d in DATASETS if d in settings.datasets] or DATASETS


def _index(settings: BenchSettings) -> str:
    available = settings.indexes or list(INDEX_PREFERENCE)
    for name in INDEX_PREFERENCE:
        if name in available:
            return name
    return available[0]


def cells(settings: BenchSettings) -> List[MeasureCell]:
    """Per-shard sweep grid for the serving family (shared with the
    ``ext_cluster`` grid, so a warm cache resolves every cell)."""
    out: List[MeasureCell] = []
    for ds_name in _datasets(settings):
        for shard in range(N_SHARDS):
            out.extend(
                sweep_cells(
                    ds_name, _index(settings), shard_settings(settings, shard)
                )
            )
    return out


def _services(
    per_shard: Sequence[Measurement], machine: MachineModel
) -> List[ServiceModel]:
    return [
        ServiceModel.from_measurement(m, machine=machine) for m in per_shard
    ]


def _gold_slo_ns(
    services: Sequence[ServiceModel],
) -> float:
    """p99 target for gold: headroom over the weakest shard's service
    time with every simulated core busy (pure function of the cells)."""
    return GOLD_SLO_FACTOR * max(
        s.service_ns(SIM_CORES) for s in services
    )


def day_spec(
    offered_per_sec: float,
    n_requests: int,
    seed: int,
    gold_slo_ns: float,
    admission: AdmissionSpec = ADMISSION,
) -> ScenarioSpec:
    """The mixed-tenant day: diurnal gold, bursty silver, flash bronze.

    Per-tenant request counts are proportional to rate shares, so every
    tenant's traffic spans the same simulated wall-clock window.
    """
    n_gold = max(int(DAY_SHARES["gold"] * n_requests), 2)
    n_silver = max(int(DAY_SHARES["silver"] * n_requests), 2)
    n_bronze = max(n_requests - n_gold - n_silver, 2)
    return ScenarioSpec(
        name="mixed-day",
        tenants=(
            TenantSpec(
                name="gold",
                slo_class="gold",
                arrivals=ArrivalSpec(
                    rate_per_sec=DAY_SHARES["gold"] * offered_per_sec,
                    n_requests=n_gold,
                    seed=seed + 101,
                    shape="diurnal",
                    params=(("period_requests", max(n_gold // 2, 2)),),
                ),
                keyspace=KeySpaceSpec(seed=seed + 101),
                p99_slo_ns=gold_slo_ns,
            ),
            TenantSpec(
                name="silver",
                slo_class="silver",
                arrivals=ArrivalSpec(
                    rate_per_sec=DAY_SHARES["silver"] * offered_per_sec,
                    n_requests=n_silver,
                    seed=seed + 202,
                    shape="bursty",
                ),
                keyspace=KeySpaceSpec(lo_frac=0.5, hi_frac=1.0, seed=seed + 202),
            ),
            TenantSpec(
                name="bronze",
                slo_class="bronze",
                arrivals=ArrivalSpec(
                    rate_per_sec=DAY_SHARES["bronze"] * offered_per_sec,
                    n_requests=n_bronze,
                    seed=seed + 303,
                    shape="flash",
                    params=(
                        ("spike_factor", SPIKE_FACTOR),
                        ("spike_start_request", n_bronze // 4),
                        ("spike_len_requests", max(n_bronze // 2, 1)),
                    ),
                ),
                keyspace=KeySpaceSpec(
                    lo_frac=0.0, hi_frac=0.5, hot_theta=0.99, seed=seed + 303
                ),
            ),
        ),
        topology=TOPOLOGY,
        admission=admission,
    )


def flash_spec(
    offered_per_sec: float,
    n_requests: int,
    seed: int,
    gold_slo_ns: float,
    admission: AdmissionSpec,
) -> ScenarioSpec:
    """The admission-control showdown: steady gold vs a bronze flash
    crowd whose spike overloads the cluster several times over."""
    n_gold = max(n_requests // 2, 2)
    n_bronze = max(n_requests - n_gold, 2)
    return ScenarioSpec(
        name="flash-crowd",
        tenants=(
            TenantSpec(
                name="gold",
                slo_class="gold",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.5 * offered_per_sec,
                    n_requests=n_gold,
                    seed=seed + 11,
                ),
                keyspace=KeySpaceSpec(seed=seed + 11),
                p99_slo_ns=gold_slo_ns,
            ),
            TenantSpec(
                name="bronze",
                slo_class="bronze",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.5 * offered_per_sec,
                    n_requests=n_bronze,
                    seed=seed + 22,
                    shape="flash",
                    params=(
                        ("spike_factor", SPIKE_FACTOR),
                        ("spike_start_request", n_bronze // 8),
                        ("spike_len_requests", max(3 * n_bronze // 4, 1)),
                    ),
                ),
                keyspace=KeySpaceSpec(
                    lo_frac=0.0, hi_frac=0.5, hot_theta=0.99, seed=seed + 22
                ),
            ),
        ),
        topology=TOPOLOGY,
        admission=admission,
    )


def _tenant_rows(result: TenancyResult) -> List[Tuple[str, ...]]:
    rows = []
    for ts in result.tenants:
        s = ts.summary()
        met = ts.slo_met()
        rows.append(
            (
                ts.name,
                ts.slo_class,
                result.spec.tenants[ts.tenant].arrivals.shape,
                str(ts.requests),
                str(ts.completed),
                str(ts.shed),
                f"{ts.goodput:.4f}",
                "-" if s is None else f"{s.p50_ns:.0f}",
                "-" if s is None else f"{s.p99_ns:.0f}",
                "-" if met is None else ("yes" if met else "NO"),
            )
        )
    return rows


def _tenant_rows_from_stats(
    spec: ScenarioSpec, stats: TenancyRunStats
) -> List[Tuple[str, ...]]:
    """:func:`_tenant_rows` over a cached run record (byte-identical:
    the record's floats survive the JSON round trip losslessly)."""
    rows = []
    for ts in stats.tenants:
        s = ts.summary
        met = ts.slo_met()
        rows.append(
            (
                ts.name,
                ts.slo_class,
                spec.tenants[ts.tenant].arrivals.shape,
                str(ts.requests),
                str(ts.completed),
                str(ts.shed),
                f"{ts.goodput:.4f}",
                "-" if s is None else f"{s.p50_ns:.0f}",
                "-" if s is None else f"{s.p99_ns:.0f}",
                "-" if met is None else ("yes" if met else "NO"),
            )
        )
    return rows


def _scenario_run_task(
    spec: ScenarioSpec,
    ds_name: str,
    settings: BenchSettings,
    per_shard: Sequence[Measurement],
    machine: MachineModel,
):
    """One scenario replay as a picklable task; the worker rebuilds the
    dataset and shard map from (dataset, n_keys, seed)."""
    return scenario_task(
        spec, ds_name, settings.n_keys, settings.seed, per_shard, machine
    )


_TENANT_HEADER = [
    "tenant",
    "class",
    "shape",
    "requests",
    "done",
    "shed",
    "goodput",
    "p50 ns",
    "p99 ns",
    "SLO met",
]


def run(settings: BenchSettings) -> str:
    machine = MachineModel()
    n_req = _n_requests(settings)
    index = _index(settings)
    parts = [
        "ext_tenants: multi-tenant serving with admission control "
        f"({index} on {N_SHARDS} shards x {N_REPLICAS} replicas x "
        f"{SIM_CORES} cores, {n_req} requests per scenario, "
        f"seed {settings.seed})\n"
    ]
    for ds_name in _datasets(settings):
        ds = make_dataset(
            ds_name, settings.n_keys, seed=settings.seed, key_bits=64
        )
        shard_map = ShardMap.from_keys(ds.keys, N_SHARDS)
        per_shard = shard_measurements(ds_name, index, settings)
        services = _services(per_shard, machine)
        offered = LOAD_FRACTION * cluster_capacity_per_sec(
            per_shard, machine
        )
        slo_ns = _gold_slo_ns(services)

        # -- mixed-tenant day ------------------------------------------
        day = day_spec(offered, n_req, settings.seed, slo_ns)
        day_result = simulate_scenario(
            day, services, ds.keys, shard_map=shard_map
        )
        day_result.to_metrics()
        parts.append(
            f"mixed-tenant day, {ds_name} (baseline load "
            f"{LOAD_FRACTION:.2f} of cluster capacity, gold p99 SLO "
            f"{slo_ns:.0f} ns, bronze spike {SPIKE_FACTOR:.0f}x)"
        )
        parts.append(format_table(_TENANT_HEADER, _tenant_rows(day_result)))
        parts.append("")

        # -- flash crowd: admission off vs on --------------------------
        flash = [
            (
                label,
                flash_spec(offered, n_req, settings.seed, slo_ns, admission),
            )
            for label, admission in (
                ("off", AdmissionSpec()),
                ("on", ADMISSION),
            )
        ]
        records = run_sim_tasks(
            [
                _scenario_run_task(spec, ds_name, settings, per_shard, machine)
                for _, spec in flash
            ],
            jobs=settings.jobs,
            cache=get_active_cache(),
        )
        rows = []
        for (label, spec), record in zip(flash, records):
            stats = TenancyRunStats.from_dict(record)
            stats.to_metrics()
            for row in _tenant_rows_from_stats(spec, stats):
                rows.append((label,) + row)
        parts.append(
            f"flash crowd vs admission control, {ds_name} (bronze "
            f"spike {SPIKE_FACTOR:.0f}x baseline; shed bronze at "
            f"shard backlog {BRONZE_DEPTH})"
        )
        parts.append(format_table(["admission"] + _TENANT_HEADER, rows))
        parts.append("")

        # -- record-replay reproducibility -----------------------------
        trace = day_result.trace
        reloaded_spec = ScenarioSpec.from_json(day.to_json())
        reloaded_trace = TenantTrace.from_json(trace.to_json())
        replayed = replay_trace(
            reloaded_spec, reloaded_trace, services, shard_map=shard_map
        )
        identical = (
            reloaded_spec == day
            and reloaded_trace == trace
            and _tenant_rows(replayed) == _tenant_rows(day_result)
            and replayed.summary() == day_result.summary()
        )
        parts.append(f"record-replay reproducibility, {ds_name}")
        parts.append(
            format_table(
                [
                    "scenario",
                    "spec key",
                    "cache key",
                    "trace key",
                    "requests",
                    "replay identical",
                ],
                [
                    (
                        day.name,
                        day.content_key()[:12],
                        scenario_key(day)[:12],
                        trace.content_key()[:12],
                        str(len(trace)),
                        "yes" if identical else "NO",
                    )
                ],
            )
        )
        parts.append("")

        # -- gold burn rate under the flash crowd ----------------------
        # The admission off/on pair re-simulated inline with telemetry
        # (and, for the "on" run, request traces -- published as obs
        # spans).  Burn rate is a pure function of the series, so this
        # table is as replay-stable as the runs themselves.
        span_ns = n_req / offered * 1e9
        window_ns = span_ns / TELEMETRY_WINDOWS
        tel_results = {
            label: simulate_scenario(
                spec,
                services,
                ds.keys,
                shard_map=shard_map,
                telemetry=TelemetryConfig(
                    window_ns=window_ns, traces=(label == "on")
                ),
            )
            for label, spec in flash
        }
        publish(
            f"ext_tenants/{ds_name}/flash-off",
            tel_results["off"].telemetry,
        )
        publish(
            f"ext_tenants/{ds_name}/flash-on",
            tel_results["on"].telemetry,
            traces=tel_results["on"].traces,
        )
        reports = {
            label: burn_rate_report(
                r.telemetry, GOLD_BUDGET_FRACTION, slo_class="gold"
            )
            for label, r in tel_results.items()
        }
        rows = []
        n_windows = max(len(r.windows) for r in reports.values())
        for i in range(n_windows):
            row = [str(i)]
            for label in ("off", "on"):
                ws = reports[label].windows
                if i < len(ws):
                    w = ws[i]
                    row.extend(
                        [
                            str(w.bad),
                            f"{w.burn_rate:.1f}",
                            f"{w.budget_left:.2f}",
                        ]
                    )
                else:
                    row.extend(["-", "-", "-"])
            rows.append(tuple(row))
        parts.append(
            f"gold error-budget burn under the flash crowd, {ds_name} "
            f"(budget {GOLD_BUDGET_FRACTION:.0%} of gold requests, "
            f"{window_ns / 1e3:.2f} us windows; burn 1.0 = at budget)"
        )
        parts.append(
            format_table(
                [
                    "win",
                    "off bad",
                    "off burn",
                    "off left",
                    "on bad",
                    "on burn",
                    "on left",
                ],
                rows,
            )
        )
        for label in ("off", "on"):
            r = reports[label]
            exhausted = (
                "never exhausted"
                if r.exhausted_window is None
                else f"exhausted in window {r.exhausted_window}"
            )
            tte = (
                "-"
                if r.time_to_exhaustion_ns is None
                else f"{r.time_to_exhaustion_ns / 1e3:.1f} us"
            )
            parts.append(
                f"-> admission {label}: {r.total_bad}/{r.total} bad, "
                f"budget consumed {r.consumed:.2f}x, {exhausted}, "
                f"time-to-exhaustion {tte}"
            )
        parts.append("")
    return "\n".join(parts)


def depth_sweep_series(
    ds_name: str,
    settings: BenchSettings,
    machine: MachineModel,
) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
    """(gold p99, bronze shed fraction) vs bronze admission depth.

    The whole sweep is one :func:`run_sim_tasks` batch, so it fans out
    over ``--jobs`` processes and replays from the persistent cache.
    """
    per_shard = shard_measurements(ds_name, _index(settings), settings)
    services = _services(per_shard, machine)
    offered = LOAD_FRACTION * cluster_capacity_per_sec(per_shard, machine)
    slo_ns = _gold_slo_ns(services)
    n_req = _n_requests(settings)
    specs = [
        flash_spec(
            offered,
            n_req,
            settings.seed,
            slo_ns,
            AdmissionSpec(
                enabled=True, bronze_depth=depth, silver_depth=3 * depth
            ),
        )
        for depth in DEPTH_SWEEP
    ]
    records = run_sim_tasks(
        [
            _scenario_run_task(spec, ds_name, settings, per_shard, machine)
            for spec in specs
        ],
        jobs=settings.jobs,
        cache=get_active_cache(),
    )
    p99_points: List[Tuple[float, float]] = []
    shed_points: List[Tuple[float, float]] = []
    for depth, record in zip(DEPTH_SWEEP, records):
        stats = TenancyRunStats.from_dict(record)
        gold = stats.by_name("gold").summary
        p99_points.append(
            (float(depth), gold.p99_ns if gold is not None else 0.0)
        )
        shed_points.append(
            (float(depth), stats.by_name("bronze").shed_fraction)
        )
    return p99_points, shed_points


def render_svgs(settings: BenchSettings, directory: str) -> List[str]:
    """Gold p99 and bronze shed fraction vs admission depth, per dataset.

    Reuses the memoized per-shard measurements (call after :func:`run`
    or after the parallel runner has resolved this experiment's cells).
    """
    import os

    from repro.bench.svgplot import series_figure

    machine = MachineModel()
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    for ds_name in _datasets(settings):
        p99_points, shed_points = depth_sweep_series(
            ds_name, settings, machine
        )
        for stem, series, y_label in (
            (
                "tenancy_gold_p99",
                {"gold p99": p99_points},
                "gold p99 latency (ns)",
            ),
            (
                "tenancy_bronze_shed",
                {"bronze shed": shed_points},
                "bronze shed fraction",
            ),
        ):
            path = os.path.join(directory, f"{stem}_{ds_name}.svg")
            with open(path, "w") as f:
                f.write(
                    series_figure(
                        series,
                        title=(
                            f"{y_label} vs bronze admission depth — "
                            f"{ds_name} (flash crowd, "
                            f"{N_SHARDS}x{N_REPLICAS} cluster)"
                        ),
                        x_label="bronze shard-backlog threshold (log)",
                        y_label=y_label,
                    )
                )
            written.append(path)
    return written
