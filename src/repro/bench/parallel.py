"""Parallel experiment execution: fan measurement cells over processes.

The experiment grid is embarrassingly parallel, so the runner is simple
by design: dedupe the requested cells, resolve what it can from the
in-process memo and the persistent cache, execute the rest either inline
(``jobs <= 1``) or on a ``ProcessPoolExecutor``, and return measurements
re-ordered to match the input cells -- completion order never leaks into
results.  Workers recompute datasets and workloads from their seeds, and
the simulated CPU is deterministic, so a cell produces identical counters
in any process (``tests/test_parallel_determinism.py`` holds the harness
to that).

``--jobs N`` on the CLI and :func:`resolve_jobs` honour the
``REPRO_JOBS`` environment variable.
"""

from __future__ import annotations

import os
import time

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.cache import MeasurementCache
from repro.bench.cells import MeasureCell
from repro.bench.experiments import common
from repro.bench.harness import Measurement
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """CLI/env job-count resolution: explicit value, REPRO_JOBS, else 1."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class RunnerStats:
    """What the runner did, for reporting (`report.format_runner_stats`)."""

    total_cells: int = 0
    unique_cells: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    #: Per executed cell: (label, worker-measured seconds).
    cell_seconds: List[Tuple[str, float]] = field(default_factory=list)
    #: Per resolved-this-run cell: (worker_pid, label, wall_ns,
    #: cache_hit).  Cache hits carry the parent pid and the (tiny) cache
    #: read time; executed cells carry the worker that ran them --
    #: ``obs summary`` renders the per-worker load balance from this.
    worker_cells: List[Tuple[int, str, int, bool]] = field(
        default_factory=list
    )

    @property
    def executed_seconds(self) -> float:
        return sum(s for _, s in self.cell_seconds)


def cell_label(cell: MeasureCell) -> str:
    config = dict(cell.config)
    cfg = ",".join(f"{k}={v}" for k, v in sorted(config.items()))
    label = f"{cell.index}/{cell.dataset}"
    return f"{label}({cfg})" if cfg else label


def _execute_cell(cell: MeasureCell) -> Tuple[Measurement, float, int, List[dict]]:
    """Worker entry point: always computes (memo/cache checks happen in
    the parent, before dispatch).

    Returns ``(measurement, seconds, worker_pid, span_records)``.  Span
    records are captured into a private buffer (isolating any records a
    fork inherited from the parent) and shipped back with the result;
    the parent injects them in deterministic dispatch order.
    """
    start = time.perf_counter()
    with obs_spans.capture() as cap:
        with obs_spans.span("cell", label=cell_label(cell)):
            measurement = cell.run()
    return measurement, time.perf_counter() - start, os.getpid(), cap.records


def run_cells(
    cells: Sequence[MeasureCell],
    jobs: Optional[int] = None,
    cache: Optional[MeasurementCache] = None,
    memo: Optional[Dict[MeasureCell, Measurement]] = None,
) -> Tuple[List[Measurement], RunnerStats]:
    """Resolve every cell; return measurements aligned with the input.

    ``memo`` defaults to the shared per-process memo in
    ``experiments.common``, so drivers running afterwards reuse the
    results; pass a private dict to isolate runs (tests do).  ``cache``
    defaults to the active persistent cache, if any.
    """
    jobs = resolve_jobs(jobs)
    if memo is None:
        memo = common._MEASUREMENTS
    if cache is None:
        cache = common.get_active_cache()

    start = time.perf_counter()
    stats = RunnerStats(total_cells=len(cells), jobs=jobs)

    # Dedupe preserving first-occurrence order (determinism: results and
    # memo insertion follow input order, never completion order).
    unique: List[MeasureCell] = []
    seen = set()
    for cell in cells:
        if cell not in seen:
            seen.add(cell)
            unique.append(cell)
    stats.unique_cells = len(unique)

    pid = os.getpid()
    resolved: Dict[MeasureCell, Measurement] = {}
    pending: List[MeasureCell] = []
    for cell in unique:
        m = memo.get(cell)
        if m is not None:
            stats.memo_hits += 1
            resolved[cell] = m
            continue
        if cache is not None:
            t0 = time.perf_counter_ns()
            m = cache.get(cell)
            if m is not None:
                elapsed_ns = time.perf_counter_ns() - t0
                stats.cache_hits += 1
                stats.worker_cells.append(
                    (pid, cell_label(cell), elapsed_ns, True)
                )
                obs_spans.record(
                    "cell",
                    time.monotonic_ns(),
                    elapsed_ns,
                    label=cell_label(cell),
                    cache_hit=True,
                )
                resolved[cell] = m
                continue
        pending.append(cell)

    executed: Dict[MeasureCell, Tuple[Measurement, float, int]] = {}
    if pending:
        if jobs == 1 or len(pending) == 1:
            results = map(_execute_cell, pending)
        else:
            workers = min(jobs, len(pending))
            pool = ProcessPoolExecutor(max_workers=workers)
            results = pool.map(_execute_cell, pending)
        # zip over `pending` order (pool.map preserves it): executed
        # results, injected worker spans, and worker_cells tuples land in
        # deterministic dispatch order, never completion order.  Each
        # result is cached as soon as it arrives, so an interrupt or a
        # raising cell keeps every measurement finished before it.
        with_pool = jobs > 1 and len(pending) > 1
        try:
            for cell, (m, seconds, wpid, spans) in zip(pending, results):
                executed[cell] = (m, seconds, wpid)
                obs_spans.inject(spans)
                if cache is not None:
                    cache.put(cell, m)
        finally:
            if with_pool:
                pool.shutdown()

    reg = obs_metrics.get_registry()
    cell_hist = reg.histogram("bench.runner.cell_wall_ns")
    for cell in unique:
        if cell in executed:
            m, seconds, wpid = executed[cell]
            stats.executed += 1
            stats.cell_seconds.append((cell_label(cell), seconds))
            stats.worker_cells.append(
                (wpid, cell_label(cell), int(seconds * 1e9), False)
            )
            cell_hist.observe(int(seconds * 1e9))
            resolved[cell] = m
        memo.setdefault(cell, resolved[cell])

    reg.counter("bench.runner.memo_hits").inc(stats.memo_hits)
    reg.counter("bench.runner.cache_hits").inc(stats.cache_hits)
    reg.counter("bench.runner.executed").inc(stats.executed)
    reg.gauge("bench.runner.jobs").set_max(jobs)

    stats.wall_seconds = time.perf_counter() - start
    return [resolved[cell] for cell in cells], stats


def collect_cells(
    experiment_ids: Iterable[str], settings
) -> List[MeasureCell]:
    """Every enumerable cell of the chosen experiments, in CLI order."""
    from repro.bench.experiments import EXPERIMENT_CELLS

    cells: List[MeasureCell] = []
    for exp_id in experiment_ids:
        enumerate_fn = EXPERIMENT_CELLS.get(exp_id)
        if enumerate_fn is not None:
            cells.extend(enumerate_fn(settings))
    return cells
