"""Shared plumbing for the per-figure experiment drivers.

Measurements flow through a single abstraction: a picklable
:class:`~repro.bench.cells.MeasureCell` (one grid point) mapping to one
:class:`~repro.bench.harness.Measurement`.  A grid driver lists its grid
in ``cells(settings)`` and formats what :func:`measure_cells` returns
for those cells, through the runner's one ladder: the per-process memo
``_MEASUREMENTS``, the active persistent :mod:`repro.bench.cache`, then
execution.  The CLI's runner pass fills the memo first, from a process
pool, so every cell a driver reads is a memo hit.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.bench.cache import MeasurementCache
from repro.bench.cells import MeasureCell, cell_inputs
from repro.bench.config import BenchSettings, sweep_configs
from repro.bench.harness import Measurement
from repro.core.registry import get_index_class
from repro.datasets.loader import make_dataset
from repro.learned.models import clear_root_fits

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


def measure_cells(cells: Sequence[MeasureCell]) -> List[Measurement]:
    """The measurements of ``cells``, aligned with them.

    Memo -> active cache -> inline execution, memoizing on the way out.
    """
    # Imported here: repro.bench.parallel imports this module.
    from repro.bench.parallel import _resolve

    return _resolve(cells, jobs=1, cache=_ACTIVE_CACHE, memo=_MEASUREMENTS)[0]


def sweep_cells(
    ds_name: str,
    index_name: str,
    settings: BenchSettings,
    key_bits: int = 64,
    warm: bool = True,
    search: str = "binary",
) -> List[MeasureCell]:
    """The cells of an index's size sweep over one dataset."""
    ds = make_dataset(
        ds_name, settings.n_keys, seed=settings.seed, key_bits=key_bits
    )
    cls = get_index_class(index_name)
    return [
        MeasureCell.make(
            ds_name, index_name, config, settings, key_bits, warm, search
        )
        for config in sweep_configs(cls, ds.n, settings.max_configs)
    ]


def group_by(measurements: Sequence[Measurement], field: str) -> Dict:
    """Measurements by the value of one field, in first-seen order.  An
    absent value reads as an empty list, on which :func:`fastest` raises."""
    groups: Dict[object, List[Measurement]] = defaultdict(list)
    for m in measurements:
        groups[getattr(m, field)].append(m)
    return groups


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
    """Reset memoized measurements, root fits and simulations (mainly for
    tests)."""
    _MEASUREMENTS.clear()
    cell_inputs.cache_clear()
    clear_root_fits()
    # Imported here: repro.serve.sweep is independent of this module and
    # only needed when serving experiments have run.
    from repro.serve.sweep import clear_sim_results

    clear_sim_results()
