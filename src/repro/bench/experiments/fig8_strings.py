"""Figure 8: string-oriented structures (FST, Wormhole) on integer data.

The paper's finding: structures whose optimizations assume expensive key
comparisons (FST's byte-per-level navigation, Wormhole's prefix hashing)
are pure overhead on single-instruction integer comparisons, and lose to
even binary search.
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

INDEXES = ["RMI", "BTree", "FST", "Wormhole"]
DATASETS = ["amzn", "face"]


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        out.append(MeasureCell.make(ds_name, "BS", {}, settings))
        for index_name in INDEXES:
            out.extend(sweep_cells(ds_name, index_name, settings))
    return out


def run(settings: BenchSettings) -> str:
    parts = ["Figure 8: structures designed for strings, on integer keys\n"]
    by_dataset = group_by(measure_cells(cells(settings)), "dataset")
    # cells() lists each dataset's BS baseline before its sweeps.
    for ds_name, (bs, *swept) in by_dataset.items():
        rows = [
            (m.index, f"{m.size_mb:.4f}", f"{m.latency_ns:.0f}") for m in swept
        ]
        parts.append(
            f"dataset={ds_name}  (binary search baseline: {bs.latency_ns:.0f} ns)"
        )
        parts.append(format_table(["index", "size MB", "lookup ns"], rows))
        parts.append("")
    return "\n".join(parts)
