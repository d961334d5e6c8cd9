"""Figure 11: last-mile search functions (binary / linear / interpolation).

The paper finds binary always beats linear, and interpolation ~matches
binary on the smooth amzn but loses on the erratic osm.  This doubles as
the ablation bench for the last-mile design choice (DESIGN.md Section 5).
"""

from __future__ import annotations

from typing import List

from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments.common import (
    group_by,
    measure_cells,
    sweep_cells,
)
from repro.bench.report import format_table
from repro.search.last_mile import SEARCH_FUNCTIONS

INDEXES = ["RMI", "PGM", "RS"]
DATASETS = ["amzn", "osm"]


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        for index_name in settings.indexes or INDEXES:
            for search in SEARCH_FUNCTIONS:
                out.extend(
                    sweep_cells(ds_name, index_name, settings, search=search)
                )
    return out


def run(settings: BenchSettings) -> str:
    parts = ["Figure 11: last-mile search technique comparison\n"]
    by_dataset = group_by(measure_cells(cells(settings)), "dataset")
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        rows = [
            (m.index, m.search, f"{m.size_mb:.4f}", f"{m.latency_ns:.0f}")
            for m in by_dataset[ds_name]
        ]
        parts.append(f"dataset={ds_name}")
        parts.append(
            format_table(["index", "search", "size MB", "lookup ns"], rows)
        )
        parts.append("")
    return "\n".join(parts)
