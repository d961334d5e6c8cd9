"""Parallel experiment execution: fan work items over processes.

The experiment grid is embarrassingly parallel, so the runner is simple
by design: dedupe the requested items, resolve what it can from the
in-process memo and the persistent cache, execute the rest either inline
(one job or one pending item) or on a ``ProcessPoolExecutor``, and
return results re-ordered to match the input -- completion order never
leaks into results.  Workers recompute datasets, workloads and arrival
processes from their seeds, and the simulators are deterministic, so an
item produces identical results in any process
(``tests/test_parallel_determinism.py`` holds the harness to that).

One ladder (:func:`_resolve`) serves two entry points: :func:`run_cells`
for measurement cells and :func:`repro.serve.sweep.run_sim_tasks` for
simulation tasks.  Each picks its memo and publishes its own metrics.
Both take the job count from :func:`resolve_jobs`: an explicit value,
else the ``REPRO_JOBS`` environment variable, else 1.
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

    @property
    def executed_seconds(self) -> float:
        return sum(s for _, s in self.cell_seconds)


def cell_label(cell) -> str:
    """A work item's ``cell`` span label: ``index/dataset(config)`` for a
    measurement cell, the task kind for a simulation task."""
    return cell.label()


def _execute(cell) -> Tuple[object, float, List[dict]]:
    """Worker entry point: always computes (memo/cache checks happen in
    the parent, before dispatch).

    Returns ``(result, seconds, span_records)``.  Span records are
    captured into a private buffer (isolating any records a fork
    inherited from the parent) and shipped back with the result; the
    parent injects them in deterministic dispatch order.
    """
    start = time.perf_counter()
    with obs_spans.capture() as cap:
        with obs_spans.span("cell", label=cell_label(cell)):
            result = cell.run()
    return result, time.perf_counter() - start, cap.records


def _resolve(
    cells: Sequence, jobs: Optional[int], cache, memo: dict
) -> Tuple[list, RunnerStats]:
    """Memo -> cache -> execute every work item, for both entry points.

    A work item is a measurement cell or a simulation task: hashable,
    picklable, with ``run()``, ``label()`` and the ``key_fields()``/
    ``to_record``/``from_record`` the cache needs.  Returns
    ``(results aligned with cells, RunnerStats)``.
    """
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    stats = RunnerStats(total_cells=len(cells), jobs=jobs)

    # Dedupe preserving first-occurrence order (determinism: results and
    # memo insertion follow input order, never completion order).
    unique = list(dict.fromkeys(cells))
    stats.unique_cells = len(unique)

    resolved = {}
    pending = []
    for cell in unique:
        result = memo.get(cell)
        if result is not None:
            stats.memo_hits += 1
            resolved[cell] = result
            continue
        if cache is not None:
            t0 = time.perf_counter_ns()
            result = cache.get(cell)
            if result is not None:
                elapsed_ns = time.perf_counter_ns() - t0
                stats.cache_hits += 1
                obs_spans.record(
                    "cell",
                    time.monotonic_ns(),
                    elapsed_ns,
                    label=cell_label(cell),
                    cache_hit=True,
                )
                resolved[cell] = result
                continue
        pending.append(cell)

    executed = {}
    if pending:
        with_pool = jobs > 1 and len(pending) > 1
        if with_pool:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
            results = pool.map(_execute, pending)
        else:
            results = map(_execute, pending)
        # zip over `pending` order (pool.map preserves it): executed
        # results and injected worker spans land in deterministic
        # dispatch order, never completion order.  Each result is cached
        # as soon as it arrives, so an interrupt or a raising item keeps
        # every result finished before it.
        try:
            for cell, (result, seconds, spans) in zip(pending, results):
                executed[cell] = (result, seconds)
                obs_spans.inject(spans)
                if cache is not None:
                    cache.put(cell, result)
        finally:
            if with_pool:
                pool.shutdown()

    for cell in unique:
        if cell in executed:
            result, seconds = executed[cell]
            stats.executed += 1
            stats.cell_seconds.append((cell_label(cell), seconds))
            resolved[cell] = result
        memo.setdefault(cell, resolved[cell])

    stats.wall_seconds = time.perf_counter() - start
    return [resolved[cell] for cell in cells], stats


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
    if memo is None:
        memo = common._MEASUREMENTS
    if cache is None:
        cache = common.get_active_cache()
    measurements, stats = _resolve(cells, jobs, cache, memo)

    reg = obs_metrics.get_registry()
    cell_hist = reg.histogram("bench.runner.cell_wall_ns")
    for _, seconds in stats.cell_seconds:
        cell_hist.observe(int(seconds * 1e9))
    reg.counter("bench.runner.memo_hits").inc(stats.memo_hits)
    reg.counter("bench.runner.cache_hits").inc(stats.cache_hits)
    reg.counter("bench.runner.executed").inc(stats.executed)
    reg.gauge("bench.runner.jobs").set_max(stats.jobs)
    return measurements, stats


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
