"""Figure 12: lookup time vs candidate explanatory metrics.

For each index configuration: model size, average log2 of the search
bound ("log2 error"), cache misses, branch misses and instruction count,
against the lookup time.  The point of the figure is that no single
column predicts the latency column.
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
from repro.bench.stats import correlations

INDEXES = ["PGM", "RS", "RMI", "BTree", "ART"]
DATASETS = ["amzn", "osm"]


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        for index_name in settings.indexes or INDEXES:
            out.extend(sweep_cells(ds_name, index_name, settings))
    return out


def run(settings: BenchSettings) -> str:
    parts = ["Figure 12: metrics vs lookup time\n"]
    by_dataset = group_by(measure_cells(cells(settings)), "dataset")
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        ms = by_dataset[ds_name]
        rows = [
            (
                m.index,
                f"{m.size_mb:.4f}",
                f"{m.avg_log2_bound:.2f}",
                f"{m.counters.llc_misses:.2f}",
                f"{m.counters.branch_misses:.2f}",
                f"{m.counters.instructions:.1f}",
                f"{m.latency_ns:.0f}",
            )
            for m in sorted(ms, key=lambda m: (m.index, m.size_bytes))
        ]
        parts.append(f"dataset={ds_name}")
        parts.append(
            format_table(
                [
                    "index",
                    "size MB",
                    "log2 err",
                    "cache miss",
                    "branch miss",
                    "instructions",
                    "lookup ns",
                ],
                rows,
            )
        )
        corr = correlations(
            {
                "size_mb": [m.size_mb for m in ms],
                "log2_err": [m.avg_log2_bound for m in ms],
                "cache_misses": [m.counters.llc_misses for m in ms],
                "branch_misses": [m.counters.branch_misses for m in ms],
                "instructions": [m.counters.instructions for m in ms],
            },
            [m.latency_ns for m in ms],
        )
        parts.append(
            "single-metric Pearson r vs lookup time: "
            + ", ".join(f"{k}={v:+.2f}" for k, v in corr.items())
        )
        parts.append("")
    return "\n".join(parts)
