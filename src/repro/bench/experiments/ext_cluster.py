"""Extension: sharded serving cluster under fault injection.

``ext_serving`` asks which index serves one machine's traffic within an
SLO; a deployment shards the key space over several machines, replicates
each shard, and keeps serving while replicas crash and go slow.  This
experiment partitions each dataset into :data:`N_SHARDS` key ranges,
builds one real index per shard through the measurement harness (cells
flow through the same persistent cache and ``--jobs`` pool as every
other grid), and replays seeded traffic through
:mod:`repro.serve.cluster` to report:

* a tail-latency-under-faults table per index family: fault-free vs
  crash faults vs crash+slow (gray) faults, with availability, retry and
  crash counts alongside p50/p99/p99.9;
* a hedging table under rare gray failures: p99/p99.9 with request
  hedging off vs on, at the same offered load and fault schedule;
* a cluster SLO selection table (the cluster-aware analogue of
  ``select_under_slo``): the cheapest index family whose simulated
  cluster p99 meets the SLO within a per-shard memory budget and an
  availability floor, under crash faults;
* a windowed cluster-telemetry table for the crash scenario: the same
  replay with :class:`repro.serve.telemetry.TelemetryConfig` attached,
  routed *through* :func:`repro.serve.sweep.run_sim_tasks` (telemetry
  survives the task record's JSON round trip byte-identically), showing
  per-window failures, retries and shard availability as replicas crash
  and recover.

Per-shard builds are proxy builds: shard ``i`` is measured on a dataset
drawn from the same generator with ``n_keys / N_SHARDS`` keys and a
shard-distinct seed, which models the smaller per-shard index (size and
cache behaviour scale with the partition) without materializing actual
key-range slices.  Routing still uses the *full* dataset's equal-count
partition bounds, so shard load follows the real key distribution.

Everything downstream of the cells is a deterministic replay: arrivals,
request keys, and fault schedules are pure functions of the seed, so the
tables are bit-identical across serial runs, ``--jobs N``, and
cache-replay (pinned by ``tests/test_cluster_differential.py``).

Each replay is a picklable :class:`repro.serve.sweep.ClusterTask`;
``run()`` batches them in two phases through
:func:`repro.serve.sweep.run_sim_tasks` (``--jobs`` processes plus the
persistent result cache): phase one covers the fault scenarios and
the hedging-off runs, phase two the hedging-on runs whose hedge
threshold derives from phase one's healthy baseline -- which is the
same task as the ``none`` scenario, so the memo deduplicates it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments.common import (
    fastest,
    get_active_cache,
    measure_cells,
    sweep_cells,
)
from repro.bench.harness import Measurement
from repro.bench.report import format_table
from repro.datasets.loader import make_dataset
from repro.serve.contention import MachineModel, throughput
from repro.serve.faults import FaultConfig
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.selector import select_cluster_under_slo
from repro.serve.sweep import ClusterRunStats, cluster_task, run_sim_tasks
from repro.serve.telemetry import TelemetryConfig, publish

INDEXES = ["RMI", "PGM", "BTree"]
DATASETS = ["amzn", "osm"]
#: Cluster topology: key ranges x replicas per range, cores per replica.
N_SHARDS = 4
N_REPLICAS = 2
SIM_CORES = 2
#: Offered load as a fraction of the family's weakest-shard capacity.
LOAD_FRACTION = 0.55
#: SLO for the selection table: p99 within this factor of the best
#: modelled uncontended latency among the dataset's families.  The
#: factor absorbs queueing *and* crash-fault retries, so it is wider
#: than ``ext_serving``'s fault-free 3x.
SLO_FACTOR = 7.0
#: Availability floor for the selection table (under crash faults).
MIN_AVAILABILITY = 0.9
#: Seed offset so per-shard proxy datasets never collide with the full
#: dataset or with each other.
_SHARD_SEED_STRIDE = 9176
#: Crash-intensity sweep for the SVG figures: expected crash faults per
#: replica stream over the run.
FAULT_RATE_SWEEP = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
#: Tumbling windows per cluster-telemetry run.
TELEMETRY_WINDOWS = 12

_SCENARIOS = ("none", "crash", "crash+slow")


def _datasets(settings: BenchSettings) -> List[str]:
    return [d for d in DATASETS if d in settings.datasets] or DATASETS


def _indexes(settings: BenchSettings) -> List[str]:
    return settings.indexes or INDEXES


def _n_requests(settings: BenchSettings) -> int:
    """Simulated requests per run, scaled with the measurement budget."""
    return max(400, min(4_000, 2 * settings.n_lookups))


def shard_settings(settings: BenchSettings, shard: int) -> BenchSettings:
    """Settings for shard ``shard``'s proxy build (1/N keys, own seed)."""
    return replace(
        settings,
        n_keys=max(settings.n_keys // N_SHARDS, 1_000),
        seed=settings.seed + _SHARD_SEED_STRIDE * (shard + 1),
    )


def cells(settings: BenchSettings) -> List[MeasureCell]:
    """Per-shard sweep grid: datasets x indexes x shards x configs."""
    out: List[MeasureCell] = []
    for ds_name in _datasets(settings):
        for index_name in _indexes(settings):
            for shard in range(N_SHARDS):
                out.extend(
                    sweep_cells(
                        ds_name, index_name, shard_settings(settings, shard)
                    )
                )
    return out


def shard_measurements(
    ds_name: str, index_name: str, settings: BenchSettings
) -> List[Measurement]:
    """Fastest sweep variant per shard (one real build per shard)."""
    out: List[Measurement] = []
    for shard in range(N_SHARDS):
        grid = sweep_cells(ds_name, index_name, shard_settings(settings, shard))
        out.append(fastest(measure_cells(grid)))
    return out


def cluster_capacity_per_sec(
    per_shard: Sequence[Measurement], machine: MachineModel
) -> float:
    """Modelled saturated cluster rate, limited by the weakest shard.

    Request keys are sampled uniformly from the served array and the
    partition is equal-count, so shards see ~equal load and the slowest
    shard saturates first.
    """
    weakest = min(
        throughput(m, SIM_CORES, machine=machine).lookups_per_sec
        for m in per_shard
    )
    return weakest * N_SHARDS * N_REPLICAS


def _span_ns(offered_per_sec: float, n_requests: int) -> float:
    """Expected arrival span of the run (the fault-schedule timescale)."""
    return n_requests / offered_per_sec * 1e9


def _horizon_ns(span_ns: float) -> float:
    """Fault horizon: schedule faults only while traffic is flowing.

    The simulator's own default horizon has a 1 ms floor meant for
    long-running traces; these runs span tens of microseconds, so the
    floor would inject faults long after the last arrival and swamp the
    counts.  1.5x the arrival span covers the drain tail instead.
    """
    return span_ns * 1.5


def scenario_policy(span_ns: float) -> RouterPolicy:
    """Retry backoff scaled to the run, so retries resolve within it.

    The default :class:`RouterPolicy` backoff (100 us base) suits
    millisecond-scale traces; against a tens-of-microseconds run it
    would dominate every retried request's latency.  Backoff here starts
    at 1/50 of the arrival span (comparable to the scenario MTTRs below)
    and caps at 1/5.
    """
    return RouterPolicy(
        backoff_base_ns=span_ns / 50.0, backoff_cap_ns=span_ns / 5.0
    )


def scenario_faults(
    scenario: str, span_ns: float, seed: int
) -> Optional[FaultConfig]:
    """Fault config for one named scenario, scaled to the run's span.

    MTTFs are fractions of the arrival span so every replica stream is
    expected to fail during the run regardless of the absolute rate.
    """
    if scenario == "none":
        return None
    if scenario == "crash":
        return FaultConfig(
            crash_mttf_ns=span_ns / 2.0,
            crash_mttr_ns=span_ns / 10.0,
            seed=seed,
        )
    if scenario == "crash+slow":
        return FaultConfig(
            crash_mttf_ns=span_ns / 2.0,
            crash_mttr_ns=span_ns / 10.0,
            slow_mttf_ns=span_ns / 2.0,
            slow_mttr_ns=span_ns / 8.0,
            slow_factor=6.0,
            seed=seed,
        )
    raise ValueError(f"unknown fault scenario {scenario!r}")


def scenario_cluster_task(
    shard_map: ShardMap,
    per_shard: Sequence[Measurement],
    keys,
    offered_per_sec: float,
    settings: BenchSettings,
    machine: MachineModel,
    policy: RouterPolicy = RouterPolicy(),
    faults: Optional[FaultConfig] = None,
    telemetry: Optional[TelemetryConfig] = None,
):
    """One cluster replay at the given load and faults, as a picklable task."""
    n_req = _n_requests(settings)
    return cluster_task(
        per_shard,
        shard_map,
        request_keys(keys, n_req, settings.seed),
        offered_per_sec,
        n_req,
        settings.seed,
        N_REPLICAS,
        SIM_CORES,
        policy,
        faults,
        _horizon_ns(_span_ns(offered_per_sec, n_req)),
        machine,
        telemetry=telemetry,
    )


def fault_rate_series(
    shard_map: ShardMap,
    per_shard: Sequence[Measurement],
    keys,
    offered_per_sec: float,
    settings: BenchSettings,
    machine: MachineModel,
    rates: Sequence[float] = FAULT_RATE_SWEEP,
    jobs: Optional[int] = None,
) -> List[Tuple[float, ClusterRunStats]]:
    """(expected crashes per replica stream, run stats) along the sweep.

    The whole sweep is one :func:`run_sim_tasks` batch, so it fans out
    over ``jobs`` processes and replays from the persistent cache.
    """
    span = _span_ns(offered_per_sec, _n_requests(settings))
    tasks = []
    for rate in rates:
        faults = FaultConfig(
            crash_mttf_ns=span / rate,
            crash_mttr_ns=span / 10.0,
            seed=settings.seed,
        )
        tasks.append(
            scenario_cluster_task(
                shard_map,
                per_shard,
                keys,
                offered_per_sec,
                settings,
                machine,
                policy=scenario_policy(span),
                faults=faults,
            )
        )
    records = run_sim_tasks(tasks, jobs=jobs, cache=get_active_cache())
    return [
        (rate, ClusterRunStats.from_dict(record))
        for rate, record in zip(rates, records)
    ]


def _per_family(
    ds_name: str, settings: BenchSettings
) -> Dict[str, List[Measurement]]:
    return {
        name: shard_measurements(ds_name, name, settings)
        for name in _indexes(settings)
    }


def run(settings: BenchSettings) -> str:
    # Local for the same import-cycle reason as in ext_serving: the
    # obs report module renders bench tables too.
    from repro.obs.report import format_timeline

    machine = MachineModel()
    n_req = _n_requests(settings)
    parts = [
        "ext_cluster: sharded serving cluster under fault injection "
        f"({N_SHARDS} shards x {N_REPLICAS} replicas x {SIM_CORES} cores, "
        f"{n_req} requests per run, seed {settings.seed})\n"
    ]
    sim_cache = get_active_cache()
    for ds_name in _datasets(settings):
        ds = make_dataset(
            ds_name, settings.n_keys, seed=settings.seed, key_bits=64
        )
        shard_map = ShardMap.from_keys(ds.keys, N_SHARDS)
        families = _per_family(ds_name, settings)

        # Phase one: every scenario replay plus the hedging-off runs, as
        # one batch over --jobs processes.  The hedging-on runs need the
        # healthy baseline's p99 (computed below), so they batch in a
        # second phase; the baseline itself *is* the "none" scenario
        # task, which the runner's memo deduplicates.
        fam_ctx: Dict[str, dict] = {}
        phase1 = []
        for name in sorted(families):
            per_shard = families[name]
            offered = LOAD_FRACTION * cluster_capacity_per_sec(
                per_shard, machine
            )
            span = _span_ns(offered, n_req)
            base_policy = scenario_policy(span)
            gray = FaultConfig(
                slow_mttf_ns=4.0 * span,
                slow_mttr_ns=span / 8.0,
                slow_factor=8.0,
                seed=settings.seed,
            )
            scenario_tasks = {
                scenario: scenario_cluster_task(
                    shard_map,
                    per_shard,
                    ds.keys,
                    offered,
                    settings,
                    machine,
                    policy=base_policy,
                    faults=scenario_faults(scenario, span, settings.seed),
                )
                for scenario in _SCENARIOS
            }
            gray_off = scenario_cluster_task(
                shard_map,
                per_shard,
                ds.keys,
                offered,
                settings,
                machine,
                policy=base_policy,
                faults=gray,
            )
            fam_ctx[name] = {
                "per_shard": per_shard,
                "offered": offered,
                "span": span,
                "base_policy": base_policy,
                "gray": gray,
                "scenario_tasks": scenario_tasks,
                "gray_off": gray_off,
            }
            phase1.extend(scenario_tasks.values())
            phase1.append(gray_off)
        run_sim_tasks(phase1, jobs=settings.jobs, cache=sim_cache)

        # -- tail latency and availability under faults ----------------
        rows = []
        for name in sorted(families):
            ctx = fam_ctx[name]
            for scenario in _SCENARIOS:
                record = run_sim_tasks(
                    [ctx["scenario_tasks"][scenario]], cache=sim_cache
                )[0]
                stats = ClusterRunStats.from_dict(record)
                stats.to_metrics()
                s = stats.summary
                rows.append(
                    (
                        name,
                        scenario,
                        f"{stats.availability:.4f}",
                        str(stats.failed),
                        str(stats.total_retries),
                        str(stats.crashes),
                        str(stats.slow_events),
                        f"{s.p50_ns:.0f}",
                        f"{s.p99_ns:.0f}",
                        f"{s.p999_ns:.0f}",
                    )
                )
        parts.append(
            f"tail latency under faults, {ds_name} "
            f"(load {LOAD_FRACTION:.2f} of each family's weakest-shard "
            "capacity; fastest variant per shard)"
        )
        parts.append(
            format_table(
                [
                    "index",
                    "faults",
                    "avail",
                    "failed",
                    "retries",
                    "crashes",
                    "slow",
                    "p50 ns",
                    "p99 ns",
                    "p99.9 ns",
                ],
                rows,
            )
        )
        parts.append("")

        # -- hedging under rare gray failure ---------------------------
        # Hedge only past the *healthy* tail at this load: threshold
        # relative to the fault-free p99, not the uncontended latency,
        # or ordinary queueing would trip it constantly and the extra
        # attempts would burn the capacity hedging needs.
        hedge_ctx = {}
        phase2 = []
        for name in sorted(families):
            ctx = fam_ctx[name]
            healthy_record = run_sim_tasks(
                [ctx["scenario_tasks"]["none"]], cache=sim_cache
            )[0]
            healthy = ClusterRunStats.from_dict(healthy_record)
            hedge_ns = 3.0 * healthy.summary.p99_ns
            on_task = scenario_cluster_task(
                shard_map,
                ctx["per_shard"],
                ds.keys,
                ctx["offered"],
                settings,
                machine,
                policy=replace(ctx["base_policy"], hedge_after_ns=hedge_ns),
                faults=ctx["gray"],
            )
            hedge_ctx[name] = (hedge_ns, on_task)
            phase2.append(on_task)
        run_sim_tasks(phase2, jobs=settings.jobs, cache=sim_cache)

        rows = []
        for name in sorted(families):
            hedge_ns, on_task = hedge_ctx[name]
            off_record, on_record = run_sim_tasks(
                [fam_ctx[name]["gray_off"], on_task], cache=sim_cache
            )
            off = ClusterRunStats.from_dict(off_record)
            on = ClusterRunStats.from_dict(on_record)
            s_off, s_on = off.summary, on.summary
            rows.append(
                (
                    name,
                    f"{hedge_ns:.0f}",
                    str(on.total_hedges),
                    f"{s_off.p99_ns:.0f}",
                    f"{s_on.p99_ns:.0f}",
                    f"{s_off.p999_ns:.0f}",
                    f"{s_on.p999_ns:.0f}",
                )
            )
        parts.append(
            f"request hedging under rare gray failure, {ds_name} "
            "(one slow replica period expected per stream, 8x slowdown)"
        )
        parts.append(
            format_table(
                [
                    "index",
                    "hedge ns",
                    "hedges",
                    "p99 off",
                    "p99 on",
                    "p99.9 off",
                    "p99.9 on",
                ],
                rows,
            )
        )
        parts.append("")

        # -- cluster-aware SLO selection -------------------------------
        all_ms = [m for ms in families.values() for m in ms]
        best_latency = min(m.latency_ns for m in all_ms)
        slo_ns = SLO_FACTOR * best_latency
        offered = LOAD_FRACTION * min(
            cluster_capacity_per_sec(ms, machine)
            for ms in families.values()
        )
        span = _span_ns(offered, n_req)
        budget = float(
            sorted(
                max(m.size_bytes for m in ms) for ms in families.values()
            )[len(families) // 2]
        )
        selection = select_cluster_under_slo(
            families,
            shard_map,
            ds.keys,
            offered_per_sec=offered,
            p99_slo_ns=slo_ns,
            shard_memory_budget_bytes=budget,
            min_availability=MIN_AVAILABILITY,
            n_requests=n_req,
            seed=settings.seed,
            n_replicas=N_REPLICAS,
            n_cores=SIM_CORES,
            policy=scenario_policy(span),
            faults=scenario_faults("crash", span, settings.seed),
            machine=machine,
            fault_horizon_ns=_horizon_ns(span),
            jobs=settings.jobs,
            sim_cache=sim_cache,
        )
        rows = []
        eligible = {c.index for c in selection.eligible()}
        for c in selection.candidates:
            rows.append(
                (
                    c.index,
                    f"{c.total_size_mb:.4f}",
                    f"{c.max_shard_size_bytes / (1024.0 * 1024.0):.4f}",
                    "-" if c.summary is None else f"{c.summary.p99_ns:.0f}",
                    f"{c.availability:.4f}",
                    str(c.total_retries),
                    "yes" if c.index in eligible else "no",
                )
            )
        parts.append(
            f"cluster SLO selection, {ds_name}: cheapest family with "
            f"p99 <= {slo_ns:.0f} ns, shard footprint <= "
            f"{budget / (1024.0 * 1024.0):.4f} MB, availability >= "
            f"{MIN_AVAILABILITY:.2f} under crash faults at "
            f"{offered / 1e6:.1f} M/s offered"
        )
        parts.append(
            format_table(
                [
                    "index",
                    "total MB",
                    "max shard MB",
                    "p99 ns",
                    "avail",
                    "retries",
                    "eligible",
                ],
                rows,
            )
        )
        if selection.chosen is not None:
            c = selection.chosen
            parts.append(
                f"-> chosen: {c.index} ({c.total_size_mb:.4f} MB total, "
                f"p99 {c.summary.p99_ns:.0f} ns, "
                f"availability {c.availability:.4f})"
            )
        else:
            parts.append("-> chosen: none (no family meets the SLO)")
        parts.append("")

        # -- windowed cluster telemetry (crash scenario) ---------------
        # Through the task runner, not inline: the telemetry-on task is
        # its own cache artifact and the series survives the record's
        # JSON round trip byte-identically, so this table replays from
        # the persistent cache like every other.
        tel_name = sorted(families)[0]
        ctx = fam_ctx[tel_name]
        tel_task = scenario_cluster_task(
            shard_map,
            ctx["per_shard"],
            ds.keys,
            ctx["offered"],
            settings,
            machine,
            policy=ctx["base_policy"],
            faults=scenario_faults("crash", ctx["span"], settings.seed),
            telemetry=TelemetryConfig(
                window_ns=ctx["span"] / TELEMETRY_WINDOWS
            ),
        )
        record = run_sim_tasks([tel_task], cache=sim_cache)[0]
        ts = ClusterRunStats.from_dict(record).telemetry
        publish(f"ext_cluster/{ds_name}/{tel_name}", ts)
        parts.append(
            f"cluster telemetry under crash faults, {ds_name}/{tel_name} "
            f"({ts.window_ns / 1e3:.2f} us windows over {ts.n_shards} "
            f"shards, series {ts.content_key()[:12]})"
        )
        parts.append(format_timeline(ts.to_dict()))
        parts.append("")
    return "\n".join(parts)


def render_svgs(settings: BenchSettings, directory: str) -> List[str]:
    """p99 and availability vs crash-fault rate, one pair per dataset.

    Reuses the memoized per-shard measurements (call after :func:`run`
    or after the parallel runner has resolved this experiment's cells).
    """
    import os

    from repro.bench.svgplot import series_figure

    machine = MachineModel()
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    for ds_name in _datasets(settings):
        ds = make_dataset(
            ds_name, settings.n_keys, seed=settings.seed, key_bits=64
        )
        shard_map = ShardMap.from_keys(ds.keys, N_SHARDS)
        p99_series: Dict[str, List[Tuple[float, float]]] = {}
        avail_series: Dict[str, List[Tuple[float, float]]] = {}
        for name, per_shard in _per_family(ds_name, settings).items():
            offered = LOAD_FRACTION * cluster_capacity_per_sec(
                per_shard, machine
            )
            points = fault_rate_series(
                shard_map,
                per_shard,
                ds.keys,
                offered,
                settings,
                machine,
                jobs=settings.jobs,
            )
            p99_series[name] = [
                (rate, r.summary.p99_ns) for rate, r in points
            ]
            avail_series[name] = [
                (rate, r.availability) for rate, r in points
            ]
        for stem, series, y_label in (
            ("cluster_p99", p99_series, "p99 latency (ns)"),
            ("cluster_availability", avail_series, "availability"),
        ):
            path = os.path.join(directory, f"{stem}_{ds_name}.svg")
            with open(path, "w") as f:
                f.write(
                    series_figure(
                        series,
                        title=(
                            f"{y_label} vs crash rate — {ds_name} "
                            f"({N_SHARDS}x{N_REPLICAS} cluster)"
                        ),
                        x_label="expected crashes per replica (log)",
                        y_label=y_label,
                    )
                )
            written.append(path)
    return written
