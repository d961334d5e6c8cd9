"""Shared plumbing for the per-figure experiment drivers.

Measurements flow through a single abstraction: a picklable
:class:`~repro.bench.cells.MeasureCell` (one grid point) mapping to one
:class:`~repro.bench.harness.Measurement`.  ``cached_measure`` resolves a
cell through two layers -- the per-process memo ``_MEASUREMENTS`` and, if
one is active, the persistent on-disk :mod:`repro.bench.cache` -- before
executing it.  The parallel runner (:mod:`repro.bench.parallel`) fills
the same layers from a process pool, so drivers that run afterwards hit
memoized results regardless of how they were computed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.cache import MeasurementCache
from repro.bench.cells import MeasureCell, cell_inputs
from repro.bench.config import BenchSettings, sweep_configs
from repro.bench.harness import Measurement
from repro.core.registry import get_index_class
from repro.datasets.loader import Dataset, make_dataset
from repro.datasets.workload import Workload

#: The index set of the paper's Figure 7.
FIG7_INDEXES = ["RMI", "PGM", "RS", "RBS", "ART", "BTree", "IBTree", "FAST"]

_MEASUREMENTS: Dict[MeasureCell, Measurement] = {}

#: Process-wide persistent cache handle (None = memo only): measurement
#: cells and the serving experiments' simulation tasks share it.
_ACTIVE_CACHE: Optional[MeasurementCache] = None


def set_active_cache(cache: Optional[MeasurementCache]) -> None:
    """Install (or remove, with None) the persistent result cache."""
    global _ACTIVE_CACHE
    _ACTIVE_CACHE = cache


def get_active_cache() -> Optional[MeasurementCache]:
    return _ACTIVE_CACHE


def dataset_and_workload(
    name: str, settings: BenchSettings, key_bits: int = 64
) -> Tuple[Dataset, Workload]:
    """Dataset + present-key workload, the pair a grid cell rebuilds."""
    return cell_inputs(
        name, settings.n_keys, settings.seed, key_bits,
        settings.n_lookups + settings.warmup,
    )


def resolve_cell(
    cell: MeasureCell,
    dataset: Optional[Dataset] = None,
    workload: Optional[Workload] = None,
) -> Measurement:
    """Memo -> persistent cache -> execute, memoizing on the way out."""
    m = _MEASUREMENTS.get(cell)
    if m is not None:
        return m
    cache = _ACTIVE_CACHE
    if cache is not None:
        m = cache.get(cell)
    if m is None:
        m = cell.run(dataset, workload)
        if cache is not None:
            cache.put(cell, m)
    _MEASUREMENTS[cell] = m
    return m


def cached_measure(
    dataset: Dataset,
    workload: Workload,
    index_name: str,
    config: dict,
    settings: BenchSettings,
    warm: bool = True,
    search: str = "binary",
) -> Measurement:
    """Measure one cell, reusing the memo and any active persistent cache."""
    cell = MeasureCell.make(
        dataset.name,
        index_name,
        config,
        settings,
        key_bits=dataset.key_bits,
        warm=warm,
        search=search,
    )
    return resolve_cell(cell, dataset, workload)


def cell_for(
    ds_name: str,
    index_name: str,
    config: dict,
    settings: BenchSettings,
    key_bits: int = 64,
    warm: bool = True,
    search: str = "binary",
) -> MeasureCell:
    """The cell ``cached_measure`` would resolve for these arguments."""
    return MeasureCell.make(
        ds_name, index_name, config, settings, key_bits, warm, search
    )


def sweep_cells(
    ds_name: str,
    index_name: str,
    settings: BenchSettings,
    key_bits: int = 64,
    warm: bool = True,
    search: str = "binary",
    max_configs: Optional[int] = None,
) -> List[MeasureCell]:
    """The cells :func:`sweep` would measure, without measuring them."""
    ds = make_dataset(
        ds_name, settings.n_keys, seed=settings.seed, key_bits=key_bits
    )
    cls = get_index_class(index_name)
    limit = max_configs if max_configs is not None else settings.max_configs
    return [
        MeasureCell.make(
            ds_name, index_name, config, settings, key_bits, warm, search
        )
        for config in sweep_configs(cls, ds.n, limit)
    ]


def sweep(
    dataset: Dataset,
    workload: Workload,
    index_name: str,
    settings: BenchSettings,
    warm: bool = True,
    search: str = "binary",
    max_configs: Optional[int] = None,
) -> List[Measurement]:
    """Measure an index across its size sweep."""
    cls = get_index_class(index_name)
    limit = max_configs if max_configs is not None else settings.max_configs
    results = []
    for config in sweep_configs(cls, dataset.n, limit):
        results.append(
            cached_measure(
                dataset, workload, index_name, config, settings, warm, search
            )
        )
    return results


def fastest(measurements: List[Measurement]) -> Measurement:
    """The lowest-latency configuration of a sweep (the paper's 'fastest variant')."""
    if not measurements:
        raise ValueError("empty sweep")
    return min(measurements, key=lambda m: m.latency_ns)


def closest_to_size(
    measurements: List[Measurement], target_bytes: float
) -> Measurement:
    """The sweep configuration whose footprint is closest to a target."""
    if not measurements:
        raise ValueError("empty sweep")
    return min(measurements, key=lambda m: abs(m.size_bytes - target_bytes))


def clear_caches() -> None:
    """Reset memoized measurements and simulations (mainly for tests)."""
    _MEASUREMENTS.clear()
    cell_inputs.cache_clear()
    # Imported here: repro.serve.sweep is independent of this module and
    # only needed when serving experiments have run.
    from repro.serve.sweep import clear_sim_results

    clear_sim_results()
