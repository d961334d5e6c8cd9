"""CLI: regenerate any table or figure of the paper.

Examples
--------
::

    python -m repro.bench --experiment fig7
    python -m repro.bench --experiment table2 --n-keys 100000
    python -m repro.bench --experiment all --quick
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.cache import MeasurementCache, default_cache_dir
from repro.bench.config import BenchSettings
from repro.bench.experiments import EXPERIMENTS
from repro.bench.parallel import collect_cells, resolve_jobs, run_cells
from repro.bench.report import format_runner_stats
from repro.datasets.loader import DATASET_NAMES

#: Process-wide switches ``--profile`` and ``--obs-dir`` turn on for pool
#: workers to inherit; :func:`main` restores them before it returns.
_AMBIENT_ENV = ("REPRO_OBS_PROFILE", "REPRO_OBS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables and figures of "
        "'Benchmarking Learned Indexes' (VLDB 2020) on the simulated CPU.",
    )
    parser.add_argument(
        "--experiment",
        default="all",
        help=f"one of {', '.join(sorted(EXPERIMENTS))}, or 'all'",
    )
    parser.add_argument("--n-keys", type=int, default=None)
    parser.add_argument("--n-lookups", type=int, default=None)
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--datasets",
        nargs="+",
        choices=DATASET_NAMES,
        default=None,
    )
    parser.add_argument("--indexes", nargs="+", default=None)
    parser.add_argument("--max-configs", type=int, default=None)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small preset (40k keys, 250 lookups, 4 configs per sweep)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the measurement grid (default: "
        "$REPRO_JOBS or 1); results are bit-identical at any job count",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent measurement cache directory (default: "
        "$REPRO_CACHE_DIR or .repro_cache/measurements); re-runs and "
        "interrupted sweeps resume from it",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent measurement cache",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute per-lookup counters to model/search phases "
        "(adds a phase-breakdown table; counters are unchanged)",
    )
    parser.add_argument(
        "--obs-dir",
        metavar="DIR",
        default=None,
        help="write observability artifacts (manifest.json, spans.jsonl, "
        "metrics.json) into DIR; implies span recording",
    )
    parser.add_argument(
        "--save-measurements",
        metavar="PATH",
        default=None,
        help="after running, dump every collected measurement to PATH "
        "(.json or .csv)",
    )
    parser.add_argument(
        "--save-svg",
        metavar="DIR",
        default=None,
        help="after running, render Figure-7-style SVG plots (one per "
        "dataset) from the collected measurements into DIR",
    )
    return parser


#: Smallest value each size option accepts: an index needs two keys to
#: have a key range, a measurement at least one lookup, and warmup counts
#: lookups so it cannot be negative.
_MIN_SIZES = (("n_keys", 2), ("n_lookups", 1), ("warmup", 0))


def settings_from_args(args) -> BenchSettings:
    for field_name, minimum in _MIN_SIZES:
        value = getattr(args, field_name)
        if value is not None and value < minimum:
            raise ValueError(
                f"--{field_name.replace('_', '-')} must be at least "
                f"{minimum}, got {value}"
            )
    settings = BenchSettings.quick() if args.quick else BenchSettings()
    for field_name, arg in (
        ("n_keys", args.n_keys),
        ("n_lookups", args.n_lookups),
        ("warmup", args.warmup),
        ("seed", args.seed),
        ("datasets", args.datasets),
        ("indexes", args.indexes),
        ("max_configs", args.max_configs),
    ):
        if arg is not None:
            setattr(settings, field_name, arg)
    settings.jobs = resolve_jobs(args.jobs)
    if args.no_cache:
        settings.cache_dir = None
    else:
        settings.cache_dir = args.cache_dir or default_cache_dir()
    if args.profile:
        settings.profile = True
        # Same ambient pattern: workers see REPRO_OBS_PROFILE and
        # phase-attribute their cells.
        from repro.obs.phase import set_profiling

        set_profiling(True)
    if args.obs_dir is not None:
        settings.obs_dir = args.obs_dir
        os.environ["REPRO_OBS"] = "1"  # workers inherit span recording
    return settings


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # An in-process caller's next run must start from its own settings.
    saved_env = {name: os.environ.get(name) for name in _AMBIENT_ENV}
    try:
        return _run(parser, args, argv)
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run(parser, args, argv) -> int:
    try:
        settings = settings_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.experiment == "all":
        chosen = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        chosen = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}, all",
            file=sys.stderr,
        )
        return 2

    from repro.bench.experiments import common
    from repro.serve import telemetry as serve_telemetry

    # Experiments publish telemetry unconditionally; start each run with
    # an empty buffer so in-process re-runs don't accumulate series.
    serve_telemetry.clear_published()

    cache = None
    sim_cache = None
    if settings.cache_dir:
        cache = MeasurementCache(settings.cache_dir)
        # Simulation results live beside the measurements, in their own
        # subdirectory so measurement-cache bookkeeping is unaffected.
        from repro.bench.cache import SimResultCache

        sim_cache = SimResultCache(
            os.path.join(settings.cache_dir, "serving")
        )
    previous_cache = common.get_active_cache()
    previous_sim_cache = common.get_active_sim_cache()
    common.set_active_cache(cache)
    common.set_active_sim_cache(sim_cache)
    runner_stats = None
    try:
        # Pre-compute the measurement grid of every chosen experiment:
        # cells resolve through the persistent cache and fan out over
        # --jobs processes, then the drivers below hit memoized results.
        # Result ordering is the deterministic cell order, never
        # completion order.
        cells = collect_cells(chosen, settings)
        if cells:
            _, runner_stats = run_cells(
                cells, jobs=settings.jobs, cache=cache
            )
            print(format_runner_stats(runner_stats))
            print()

        for exp_id in chosen:
            start = time.perf_counter()
            report = EXPERIMENTS[exp_id](settings)
            elapsed = time.perf_counter() - start
            print(f"{'=' * 72}\n[{exp_id}] ({elapsed:.1f}s)\n{'=' * 72}")
            print(report)
            print()
    finally:
        common.set_active_cache(previous_cache)
        common.set_active_sim_cache(previous_sim_cache)

    if settings.profile:
        from repro.obs.report import format_phase_table

        print(f"{'=' * 72}\n[phase breakdown]\n{'=' * 72}")
        print(format_phase_table(common._MEASUREMENTS.values()))
        print()
    if settings.obs_dir:
        _write_obs(settings, runner_stats, argv)
    if args.save_measurements:
        from repro.bench.experiments import common
        from repro.bench.export import write_measurements

        count = write_measurements(
            args.save_measurements, common._MEASUREMENTS.values()
        )
        print(f"saved {count} measurements to {args.save_measurements}")
    if args.save_svg:
        _save_svgs(args.save_svg, chosen, settings)
    return 0


def _write_obs(settings, runner_stats, argv) -> None:
    """Write manifest/spans/metrics (and the phase SVG) into --obs-dir."""
    import os

    from repro.bench.experiments import common
    from repro.obs import metrics as obs_metrics
    from repro.obs import spans as obs_spans
    from repro.obs.report import phase_breakdown_svg
    from repro.obs.sink import run_manifest, write_run
    from repro.serve import telemetry as serve_telemetry

    reg = obs_metrics.get_registry()
    extra = {}
    if runner_stats is not None:
        extra["runner"] = {
            "total_cells": runner_stats.total_cells,
            "unique_cells": runner_stats.unique_cells,
            "memo_hits": runner_stats.memo_hits,
            "cache_hits": runner_stats.cache_hits,
            "executed": runner_stats.executed,
            "jobs": runner_stats.jobs,
            "wall_seconds": runner_stats.wall_seconds,
        }
    # Serving experiments publish windowed telemetry (and trace spans)
    # as they run; the obs sink gets them as a timeseries.jsonl stream
    # next to the harness spans.
    ts_records, trace_spans = serve_telemetry.drain_published()
    spans = obs_spans.drain() + trace_spans
    paths = write_run(
        settings.obs_dir,
        spans=spans,
        metrics_snapshot=reg.snapshot(),
        manifest=run_manifest(settings, argv=argv, extra=extra),
        timeseries=ts_records or None,
    )
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    if settings.profile:
        profiled = [
            m
            for m in common._MEASUREMENTS.values()
            if getattr(m, "phases", None)
        ]
        if profiled:
            svg_path = os.path.join(settings.obs_dir, "phase_breakdown.svg")
            with open(svg_path, "w") as f:
                f.write(phase_breakdown_svg(profiled))
            print(f"wrote {svg_path}")


def _save_svgs(directory: str, chosen=(), settings=None) -> None:
    import os

    from repro.bench.experiments import common
    from repro.bench.svgplot import pareto_figure

    os.makedirs(directory, exist_ok=True)
    grouped = {}
    for m in common._MEASUREMENTS.values():
        if m.warm and m.search == "binary" and m.key_bits == 64:
            grouped.setdefault(m.dataset, []).append(m)
    for dataset, ms in sorted(grouped.items()):
        baseline = next(
            (x.latency_ns for x in ms if x.index == "BS"), None
        )
        plottable = [x for x in ms if x.index != "BS" and x.size_bytes > 0]
        if not plottable:
            continue
        path = os.path.join(directory, f"pareto_{dataset}.svg")
        with open(path, "w") as f:
            f.write(
                pareto_figure(
                    plottable,
                    title=f"Size vs lookup time — {dataset}",
                    baseline_ns=baseline,
                )
            )
        print(f"wrote {path}")
    if settings is not None and "ext_cluster" in chosen:
        from repro.bench.experiments import ext_cluster

        for path in ext_cluster.render_svgs(settings, directory):
            print(f"wrote {path}")
    if settings is not None and "ext_tenants" in chosen:
        from repro.bench.experiments import ext_tenants

        for path in ext_tenants.render_svgs(settings, directory):
            print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
