"""Figure 13: learned indexes as compression (size vs log2 error).

The information-theoretic view: judge an index only by footprint and the
log2 of its search interval.  The harness prints both, per configuration,
so the (in)completeness of this view can be checked against Figure 7's
latencies.
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

INDEXES = ["RS", "RMI", "PGM", "BTree"]
DATASETS = ["amzn", "osm"]


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        for index_name in settings.indexes or INDEXES:
            out.extend(sweep_cells(ds_name, index_name, settings))
    return out


def run(settings: BenchSettings) -> str:
    parts = ["Figure 13: size vs log2 error (compression view)\n"]
    by_dataset = group_by(measure_cells(cells(settings)), "dataset")
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        rows = [
            (
                m.index,
                f"{m.size_mb:.4f}",
                f"{m.avg_log2_bound:.2f}",
                f"{m.latency_ns:.0f}",
            )
            for m in by_dataset[ds_name]
        ]
        parts.append(f"dataset={ds_name}")
        parts.append(
            format_table(
                ["index", "size MB", "log2 err", "lookup ns (for contrast)"],
                rows,
            )
        )
        parts.append("")
    return "\n".join(parts)
