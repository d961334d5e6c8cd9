"""Extension: live reconfiguration under traffic.

``ext_tenants`` holds SLOs while tenants misbehave; this experiment
holds them while the *cluster itself* changes shape.  Each dataset's
diurnal and flash-crowd days (the PR 7 arrival shapes) run through
three online operations (:mod:`repro.serve.reconfig`) mid-traffic:

* a **hot-shard split** -- the bronze tenant's Zipf-hot range is carved
  in two at 20% of the day; stale-epoch requests re-resolve against the
  new map at dispatch (key-range handoff);
* a **rebuild-and-swap** -- one replica leaves the rotation at 45% of
  the day and rebuilds its index, the build cost drawn from the paper's
  fig17 build-time measurement for this dataset/index (clamped to a
  band of the day so every measurement scale exercises an in-traffic
  rebuild), then swaps the rebuilt index in atomically;
* a **reactive autoscaler** -- every telemetry window it reads each
  shard's queue depth and adds/retires replicas.

Per scenario the report shows the per-window p99, availability and
gold-class error-budget burn (:func:`repro.serve.telemetry.
burn_rate_report`) with the transitions annotated inline, so SLO
preservation *across* each transition is visible; an epoch-history
table (from an inline run, which carries the full
:class:`~repro.serve.reconfig.ShardEpoch` sequence) pins the handoff
timeline.

Determinism is the usual serving bar: the reconfig schedule is a pure
function of (spec, topology, horizon), the scenario+reconfig pair is
content-keyed data, runs fan out through
:class:`~repro.serve.sweep.ScenarioTask` (``--jobs`` processes,
persistent cache), and the published time-series are byte-identical
serial vs ``--jobs N`` (the CI smoke diffs ``timeseries.jsonl``).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bench.config import BenchSettings
from repro.bench.experiments.common import get_active_cache
from repro.bench.experiments.ext_cluster import (
    N_REPLICAS,
    N_SHARDS,
    SIM_CORES,
    _n_requests,
    cluster_capacity_per_sec,
    shard_measurements,
)
from repro.bench.experiments.ext_tenants import (
    GOLD_BUDGET_FRACTION,
    LOAD_FRACTION,
    SPIKE_FACTOR,
    TELEMETRY_WINDOWS,
    _datasets,
    _gold_slo_ns,
    _index,
    _services,
    cells,  # noqa: F401  (same per-shard grid; re-exported for the CLI)
    day_spec,
    flash_spec,
)
from repro.bench.report import format_table
from repro.datasets.loader import make_dataset
from repro.serve.contention import MachineModel
from repro.serve.reconfig import (
    AUTOSCALE,
    REBUILD,
    SPLIT,
    AutoscaleSpec,
    RebuildSpec,
    ReconfigSpec,
    SplitSpec,
    reconfig_schedule,
)
from repro.serve.router import ShardMap
from repro.serve.scenario import AdmissionSpec, ScenarioSpec
from repro.serve.sweep import TenancyRunStats, run_sim_tasks, scenario_task
from repro.serve.telemetry import TelemetryConfig, burn_rate_report, publish
from repro.serve.tenancy import simulate_scenario

#: When each operation fires, as fractions of the day's span.
SPLIT_AT_FRAC = 0.20
REBUILD_AT_FRAC = 0.45
#: The measured fig17 build time is clamped into this band of the day,
#: so the rebuild is always *in traffic* (neither instantaneous nor
#: outlasting the run) at every measurement scale.
BUILD_MIN_FRAC = 0.05
BUILD_MAX_FRAC = 0.30
#: Post-rebuild service-time improvement (a fresh, compacted index).
REBUILD_SPEEDUP = 1.25
#: Autoscaler rule: one tick per telemetry window; add a replica at
#: this per-shard backlog, retire one when the backlog drains to zero.
AUTOSCALE_UP_DEPTH = 6
AUTOSCALE_MAX_EXTRA = 2


def build_ns_from_measurements(per_shard, span_ns: float) -> float:
    """The rebuild's cost: the slowest shard's measured build time
    (fig17's quantity), clamped into the in-traffic band of the day."""
    raw = max(m.build_seconds for m in per_shard) * 1e9
    return min(max(raw, BUILD_MIN_FRAC * span_ns), BUILD_MAX_FRAC * span_ns)


def reconfig_plan(
    shard_map: ShardMap, span_ns: float, build_ns: float
) -> ReconfigSpec:
    """The day's operations, as pure data derived from (map, span, cost).

    Shard 0 owns the bronze tenant's Zipf-hot lower key range, so it is
    the split target; the rebuild hits shard 1's first replica, away
    from the split, so the two transitions are separately visible.
    """
    bounds = shard_map.lower_bounds
    at_key = bounds[0] + (bounds[1] - bounds[0]) // 2
    splits: Tuple[SplitSpec, ...] = ()
    if bounds[0] < at_key < bounds[1]:
        splits = (
            SplitSpec(
                at_ns=SPLIT_AT_FRAC * span_ns, shard=0, at_key=at_key
            ),
        )
    return ReconfigSpec(
        splits=splits,
        rebuilds=(
            RebuildSpec(
                at_ns=REBUILD_AT_FRAC * span_ns,
                shard=1,
                replica=0,
                build_ns=build_ns,
                speedup=REBUILD_SPEEDUP,
            ),
        ),
        autoscale=AutoscaleSpec(
            interval_ns=span_ns / TELEMETRY_WINDOWS,
            up_depth=AUTOSCALE_UP_DEPTH,
            down_depth=0,
            min_replicas=N_REPLICAS,
            max_replicas=N_REPLICAS + AUTOSCALE_MAX_EXTRA,
        ),
    )


def _window_events(
    spec: ReconfigSpec, window_ns: float, n_windows: int
) -> List[str]:
    """Transition annotation per window, from the *pure* schedule (no
    simulation): split/rebuild begin+swap markers; autoscale ticks fire
    every window, so only explicit decisions are worth annotating (the
    epoch table reports them)."""
    marks = [[] for _ in range(n_windows)]

    def mark(t_ns: float, label: str) -> None:
        w = int(t_ns / window_ns)
        if 0 <= w < n_windows:
            marks[w].append(label)

    horizon = window_ns * n_windows
    for ev in reconfig_schedule(spec, N_SHARDS, N_REPLICAS, horizon):
        if ev.kind == SPLIT:
            mark(ev.time_ns, f"split s{ev.shard}")
        elif ev.kind == REBUILD:
            mark(ev.time_ns, f"rebuild s{ev.shard}r{ev.replica}")
            mark(ev.time_ns + ev.build_ns, f"swap s{ev.shard}r{ev.replica}")
        elif ev.kind == AUTOSCALE:
            pass
    return [" ".join(m) if m else "-" for m in marks]


def _scenarios(
    offered: float, n_req: int, seed: int, slo_ns: float, rspec: ReconfigSpec
) -> List[Tuple[str, ScenarioSpec]]:
    """The diurnal mixed-tenant day and the flash-crowd day (admission
    off, so the spike drives real queues into the autoscaler), both
    with the same reconfiguration plan attached."""
    return [
        (
            "diurnal",
            day_spec(offered, n_req, seed, slo_ns).with_reconfig(rspec),
        ),
        (
            "flash",
            flash_spec(
                offered, n_req, seed, slo_ns, AdmissionSpec()
            ).with_reconfig(rspec),
        ),
    ]


def run(settings: BenchSettings) -> str:
    machine = MachineModel()
    n_req = _n_requests(settings)
    index = _index(settings)
    parts = [
        "ext_reconfig: live reconfiguration under traffic "
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
        span_ns = n_req / offered * 1e9
        window_ns = span_ns / TELEMETRY_WINDOWS
        build_ns = build_ns_from_measurements(per_shard, span_ns)
        rspec = reconfig_plan(shard_map, span_ns, build_ns)
        scenarios = _scenarios(offered, n_req, settings.seed, slo_ns, rspec)

        parts.append(
            f"reconfig plan, {ds_name} (reconfig key "
            f"{rspec.content_key()[:12]}): split shard 0 at "
            f"{SPLIT_AT_FRAC:.0%} of the day; rebuild-and-swap shard 1 "
            f"replica 0 at {REBUILD_AT_FRAC:.0%} taking "
            f"{build_ns / 1e3:.1f} us (fig17 build cost, "
            f"{REBUILD_SPEEDUP:.2f}x faster after swap); autoscale "
            f"every {window_ns / 1e3:.2f} us at backlog "
            f"{AUTOSCALE_UP_DEPTH}, {N_REPLICAS}.."
            f"{N_REPLICAS + AUTOSCALE_MAX_EXTRA} replicas/shard"
        )

        # Every scenario is one cached, jobs-parallel task; telemetry
        # rides the record, so the tables replay byte-identically.
        records = run_sim_tasks(
            [
                scenario_task(
                    spec,
                    ds_name,
                    settings.n_keys,
                    settings.seed,
                    per_shard,
                    machine,
                    telemetry=TelemetryConfig(window_ns=window_ns),
                )
                for _, spec in scenarios
            ],
            jobs=settings.jobs,
            cache=get_active_cache(),
        )

        for (label, spec), record in zip(scenarios, records):
            stats = TenancyRunStats.from_dict(record)
            stats.to_metrics()
            series = stats.telemetry
            publish(f"ext_reconfig/{ds_name}/{label}", series)
            burn = burn_rate_report(
                series, GOLD_BUDGET_FRACTION, slo_class="gold"
            )
            events = _window_events(
                rspec, window_ns, len(series.windows)
            )
            rows = []
            for i, w in enumerate(series.windows):
                done = sum(w.shard_completed)
                failed = sum(w.shard_failed)
                avail = done / (done + failed) if done + failed else 1.0
                bw = burn.windows[i] if i < len(burn.windows) else None
                rows.append(
                    (
                        str(i),
                        f"{w.p99_ns:.0f}" if w.p99_ns is not None else "-",
                        f"{avail:.4f}",
                        "-" if bw is None else str(bw.bad),
                        "-" if bw is None else f"{bw.burn_rate:.1f}",
                        "-" if bw is None else f"{bw.budget_left:.2f}",
                        events[i] if i < len(events) else "-",
                    )
                )
            gold = stats.by_name("gold")
            parts.append(
                f"{label} day across the transitions, {ds_name} "
                f"(gold p99 SLO {slo_ns:.0f} ns"
                + (
                    f", bronze spike {SPIKE_FACTOR:.0f}x"
                    if label == "flash"
                    else ""
                )
                + f"; epochs {stats.epoch_count}, final "
                f"{stats.final_shards} shards / "
                f"{stats.final_replicas} replicas)"
            )
            parts.append(
                format_table(
                    [
                        "win",
                        "p99 ns",
                        "avail",
                        "gold bad",
                        "burn",
                        "left",
                        "transition",
                    ],
                    rows,
                )
            )
            exhausted = (
                "never exhausted"
                if burn.exhausted_window is None
                else f"exhausted in window {burn.exhausted_window}"
            )
            parts.append(
                f"-> {label}: overall p99 {stats.summary.p99_ns:.0f} ns, "
                f"gold {gold.completed}/{gold.requests} completed, "
                f"burn {burn.consumed:.2f}x budget, {exhausted}"
                if stats.summary is not None
                else f"-> {label}: no completions"
            )
        parts.append("")

        # -- epoch & transition history (inline run: epochs ride the
        # full result, not the summary record) -------------------------
        diurnal = scenarios[0][1]
        result = simulate_scenario(
            diurnal, services, ds.keys, shard_map=shard_map
        ).cluster
        rows = [
            (
                f"epoch {e.version}",
                f"{e.time_ns / 1e3:.2f}",
                str(len(e.owners)),
                " ".join(f"s{o}" for o in e.owners),
            )
            for e in result.epochs
        ]
        rows += [
            (
                "swap",
                f"{t / 1e3:.2f}",
                f"s{shard}r{replica}",
                f"{REBUILD_SPEEDUP:.2f}x",
            )
            for t, shard, replica in result.rebuilds
        ]
        ups = sum(1 for _, _, d in result.scale_events if d > 0)
        downs = sum(1 for _, _, d in result.scale_events if d < 0)
        parts.append(
            f"epoch + transition history, {ds_name} diurnal day "
            f"({ups} scale-ups, {downs} scale-downs, "
            f"{result.final_replicas} replicas at close)"
        )
        parts.append(
            format_table(["event", "t (us)", "ranges", "owners"], rows)
        )
        parts.append("")
    return "\n".join(parts)
