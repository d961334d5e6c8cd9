"""Extension: serving simulation -- throughput-latency curves and SLOs.

The paper's Figure 16 reports closed-loop saturated throughput; a server
"serving heavy traffic" instead sees an *arrival process*, and its tail
latency degrades from queueing long before mean throughput saturates.
This experiment replays seeded Poisson, bursty, and closed-loop traffic
through :mod:`repro.serve` for each index (fastest sweep variant, as in
Table 2) and reports:

* a throughput-latency curve per index and dataset: offered load as a
  fraction of the index's own modelled capacity, against achieved
  throughput and p50/p95/p99/p99.9 sojourn times;
* arrival-process shape at a fixed 0.7 load: Poisson vs bursty vs a
  closed loop with two clients per core (think time zero);
* an SLO selection table (the Table 2 analogue under load): the cheapest
  index configuration whose simulated p99 meets the SLO at a common
  offered rate, within a memory budget;
* a windowed serving-telemetry table: one near-saturation run per
  dataset with :class:`repro.serve.telemetry.TelemetryConfig` attached,
  showing per-window completions, queue depth and p50/p99 as queueing
  builds (published to ``--obs-dir`` as ``timeseries.jsonl``).

Simulations consume the same cached measurements as every other
experiment -- the grid below is just the Table-2-style sweep -- so the
driver is cheap once cells are resolved, and fully seed-deterministic.

Every open-loop point is expressed as a picklable
:class:`repro.serve.sweep.OpenLoopTask`; ``run()`` primes the whole
dataset's task list through :func:`repro.serve.sweep.run_sim_tasks`
(``--jobs`` processes, persistent result cache), after which the
per-table helpers below hit the in-process memo.  Records are
byte-identical whether computed inline, pooled, or replayed from cache.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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
from repro.serve.arrivals import poisson_arrivals
from repro.serve.contention import MachineModel, throughput
from repro.serve.core import ServiceModel, simulate_closed_loop, simulate_open_loop
from repro.serve.metrics import LatencySummary, summarize_result
from repro.serve.selector import select_under_slo
from repro.serve.sweep import OpenLoopRunStats, open_loop_task, run_sim_tasks
from repro.serve.telemetry import TelemetryConfig, publish

INDEXES = ["RMI", "PGM", "BTree"]
DATASETS = ["amzn", "osm"]
#: Offered load as a fraction of the index's modelled capacity.
LOAD_FRACTIONS = (0.3, 0.5, 0.7, 0.85, 0.95)
#: Simulated physical cores (kept small: event count = requests, and the
#: contention math is per-busy-core, so the shape is core-count-free).
SIM_CORES = 4
#: SLO: p99 within this factor of the *best* uncontended latency among
#: the dataset's candidates.
SLO_FACTOR = 3.0
#: Offered rate for the SLO table: this fraction of the fastest
#: candidate's capacity (one common rate for every candidate).
SLO_LOAD_FRACTION = 0.6
#: Telemetry demo point: near saturation, where windowed queue depth
#: and tail latency actually move over the run.
TELEMETRY_LOAD_FRACTION = 0.85
#: Tumbling windows per telemetry run (window = arrival span / this).
TELEMETRY_WINDOWS = 12


def _datasets(settings: BenchSettings) -> List[str]:
    return [d for d in DATASETS if d in settings.datasets] or DATASETS


def _indexes(settings: BenchSettings) -> List[str]:
    return settings.indexes or INDEXES


def _n_requests(settings: BenchSettings) -> int:
    """Simulated requests per run, scaled with the measurement budget."""
    return max(400, min(4_000, 2 * settings.n_lookups))


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for ds_name in _datasets(settings):
        for index_name in _indexes(settings):
            out.extend(sweep_cells(ds_name, index_name, settings))
    return out


def capacity_per_sec(
    measurement: Measurement, machine: MachineModel, n_cores: int = SIM_CORES
) -> float:
    """Modelled saturated lookups/second on the simulated core count."""
    return throughput(
        measurement, n_cores, machine=machine
    ).lookups_per_sec


def curve_tasks(
    measurement: Measurement,
    settings: BenchSettings,
    machine: MachineModel = MachineModel(),
    fractions: Sequence[float] = LOAD_FRACTIONS,
    n_cores: int = SIM_CORES,
):
    """(load fraction, offered rate, OpenLoopTask) per curve point."""
    cap = capacity_per_sec(measurement, machine, n_cores)
    n_req = _n_requests(settings)
    return [
        (
            frac,
            cap * frac,
            open_loop_task(
                measurement, cap * frac, n_req, settings.seed, n_cores, machine
            ),
        )
        for frac in fractions
    ]


def shape_tasks(
    measurement: Measurement,
    settings: BenchSettings,
    machine: MachineModel = MachineModel(),
    load_fraction: float = 0.7,
    n_cores: int = SIM_CORES,
):
    """The open-loop (Poisson, bursty) tasks of the shape comparison."""
    cap = capacity_per_sec(measurement, machine, n_cores)
    rate = cap * load_fraction
    n_req = _n_requests(settings)
    return [
        open_loop_task(
            measurement, rate, n_req, settings.seed, n_cores, machine,
            shape=shape,
        )
        for shape in ("poisson", "bursty")
    ]


def latency_curve(
    measurement: Measurement,
    settings: BenchSettings,
    machine: MachineModel = MachineModel(),
    fractions: Sequence[float] = LOAD_FRACTIONS,
    n_cores: int = SIM_CORES,
) -> List[Tuple[float, float, LatencySummary]]:
    """(load fraction, offered rate, summary) per point, Poisson traffic.

    Points resolve through :func:`repro.serve.sweep.run_sim_tasks`, so a
    prior batched run (or a warm persistent cache) makes this free.
    """
    points = curve_tasks(measurement, settings, machine, fractions, n_cores)
    records = run_sim_tasks(
        [task for _, _, task in points], cache=get_active_cache()
    )
    return [
        (frac, offered, OpenLoopRunStats.from_dict(record).summary)
        for (frac, offered, _), record in zip(points, records)
    ]


def arrival_shape_summaries(
    measurement: Measurement,
    settings: BenchSettings,
    machine: MachineModel = MachineModel(),
    load_fraction: float = 0.7,
    n_cores: int = SIM_CORES,
) -> Dict[str, LatencySummary]:
    """Poisson vs bursty vs closed-loop at one offered load.

    The open-loop shapes route through the task runner; the closed loop
    is state-dependent (think times depend on completions) and runs
    inline.
    """
    records = run_sim_tasks(
        shape_tasks(measurement, settings, machine, load_fraction, n_cores),
        cache=get_active_cache(),
    )
    out: Dict[str, LatencySummary] = {
        name: OpenLoopRunStats.from_dict(record).summary
        for name, record in zip(("poisson", "bursty"), records)
    }
    service = ServiceModel.from_measurement(measurement, machine=machine)
    out["closed"] = summarize_result(
        simulate_closed_loop(
            service,
            n_clients=2 * n_cores,
            n_requests=_n_requests(settings),
            mean_think_ns=0.0,
            seed=settings.seed,
            n_cores=n_cores,
        )
    )
    return out


def run(settings: BenchSettings) -> str:
    # Local: repro.obs.report renders *bench* tables too, so importing
    # it at module scope would close an import cycle through the
    # repro.bench package __init__.
    from repro.obs.report import format_timeline

    machine = MachineModel()
    n_req = _n_requests(settings)
    parts = [
        "ext_serving: discrete-event serving simulation "
        f"({SIM_CORES} cores, {n_req} requests per point, "
        f"seed {settings.seed})\n"
    ]
    sim_cache = get_active_cache()
    for ds_name in _datasets(settings):
        sweeps = {
            name: measure_cells(sweep_cells(ds_name, name, settings))
            for name in _indexes(settings)
        }
        pinned = {name: fastest(ms) for name, ms in sweeps.items()}
        candidates: List[Measurement] = [
            m for ms in sweeps.values() for m in ms
        ]
        slo_offered = SLO_LOAD_FRACTION * max(
            capacity_per_sec(m, machine) for m in candidates
        )

        # Prime every open-loop simulation of this dataset in one batch:
        # curve points, shape comparisons, and the SLO candidates fan
        # out over --jobs processes (and the persistent cache), then the
        # table-building calls below hit the in-process memo.
        tasks = []
        for m in pinned.values():
            tasks.extend(task for _, _, task in curve_tasks(m, settings, machine))
            tasks.extend(shape_tasks(m, settings, machine))
        tasks.extend(
            open_loop_task(m, slo_offered, n_req, settings.seed, SIM_CORES, machine)
            for m in candidates
        )
        run_sim_tasks(tasks, jobs=settings.jobs, cache=sim_cache)

        rows = []
        for name, m in pinned.items():
            for frac, offered, s in latency_curve(m, settings, machine):
                rows.append(
                    (
                        name,
                        f"{frac:.2f}",
                        f"{offered / 1e6:.1f}",
                        f"{s.throughput_per_sec / 1e6:.1f}",
                        f"{s.p50_ns:.0f}",
                        f"{s.p95_ns:.0f}",
                        f"{s.p99_ns:.0f}",
                        f"{s.p999_ns:.0f}",
                    )
                )
        parts.append(
            f"throughput-latency curve, {ds_name} "
            "(Poisson open loop, fastest variant per index)"
        )
        parts.append(
            format_table(
                [
                    "index",
                    "load",
                    "offered M/s",
                    "achieved M/s",
                    "p50 ns",
                    "p95 ns",
                    "p99 ns",
                    "p99.9 ns",
                ],
                rows,
            )
        )
        parts.append("")

        rows = []
        for name, m in pinned.items():
            shapes = arrival_shape_summaries(m, settings, machine)
            rows.append(
                (
                    name,
                    f"{shapes['poisson'].p99_ns:.0f}",
                    f"{shapes['bursty'].p99_ns:.0f}",
                    f"{shapes['closed'].p99_ns:.0f}",
                    f"{shapes['closed'].throughput_per_sec / 1e6:.1f}",
                )
            )
        parts.append(
            f"arrival-process shape at 0.7 load, {ds_name} "
            "(p99 ns; closed loop: 2 clients/core, zero think time)"
        )
        parts.append(
            format_table(
                [
                    "index",
                    "poisson p99",
                    "bursty p99",
                    "closed p99",
                    "closed M/s",
                ],
                rows,
            )
        )
        parts.append("")

        best_latency = min(m.latency_ns for m in candidates)
        slo_ns = SLO_FACTOR * best_latency
        selection = select_under_slo(
            candidates,
            offered_per_sec=slo_offered,
            p99_slo_ns=slo_ns,
            n_requests=n_req,
            seed=settings.seed,
            n_cores=SIM_CORES,
            machine=machine,
            jobs=settings.jobs,
            sim_cache=sim_cache,
        )
        rows = []
        for c in selection.candidates:
            rows.append(
                (
                    c.index,
                    ",".join(f"{k}={v}" for k, v in sorted(c.config.items()))
                    or "-",
                    f"{c.size_mb:.4f}",
                    f"{c.summary.p99_ns:.0f}",
                    "yes" if c.summary.p99_ns <= slo_ns else "no",
                )
            )
        parts.append(
            f"SLO selection, {ds_name}: cheapest index with "
            f"p99 <= {slo_ns:.0f} ns at {slo_offered / 1e6:.1f} M/s offered"
        )
        parts.append(
            format_table(
                ["index", "config", "size MB", "p99 ns", "meets SLO"], rows
            )
        )
        if selection.chosen is not None:
            c = selection.chosen
            parts.append(
                f"-> chosen: {c.index} ({c.size_mb:.4f} MB, "
                f"p99 {c.summary.p99_ns:.0f} ns)"
            )
        else:
            parts.append("-> chosen: none (no candidate meets the SLO)")
        parts.append("")

        # -- windowed serving telemetry at 0.85 load -------------------
        # One near-saturation run per dataset, inline (telemetry-on
        # tasks are distinct cache artifacts, and one run is cheap).
        tel_name = sorted(pinned)[0]
        tel_m = pinned[tel_name]
        tel_rate = TELEMETRY_LOAD_FRACTION * capacity_per_sec(
            tel_m, machine
        )
        span_ns = n_req / tel_rate * 1e9
        tel_cfg = TelemetryConfig(
            window_ns=span_ns / TELEMETRY_WINDOWS,
            slo_p99_ns=SLO_FACTOR * tel_m.latency_ns,
        )
        tel_result = simulate_open_loop(
            ServiceModel.from_measurement(tel_m, machine=machine),
            poisson_arrivals(tel_rate, n_req, settings.seed),
            SIM_CORES,
            telemetry=tel_cfg,
        )
        ts = tel_result.telemetry
        publish(f"ext_serving/{ds_name}/{tel_name}", ts)
        parts.append(
            f"serving telemetry, {ds_name}/{tel_name} at "
            f"{TELEMETRY_LOAD_FRACTION:.2f} load "
            f"({ts.window_ns / 1e3:.2f} us windows, SLO p99 "
            f"{tel_cfg.slo_p99_ns:.0f} ns, series {ts.content_key()[:12]})"
        )
        parts.append(format_timeline(ts.to_dict()))
        parts.append("")
    return "\n".join(parts)
