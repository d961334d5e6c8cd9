"""Figure 14: warm vs cold cache.

The warm variant keeps simulated caches and TLB across lookups (the
tight-loop setup); the cold variant flushes them before every lookup.
The paper reports 2-2.5x gains from a warm cache and that small cold
learned indexes still beat the warm BTree.
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

INDEXES = ["RMI", "RS", "PGM", "BTree", "FAST"]


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for index_name in settings.indexes or INDEXES:
        out.extend(sweep_cells("amzn", index_name, settings, warm=True))
        out.extend(sweep_cells("amzn", index_name, settings, warm=False))
    return out


def run(settings: BenchSettings) -> str:
    parts = ["Figure 14: cold vs warm cache, amzn\n"]
    by_index = group_by(measure_cells(cells(settings)), "index")
    for index_name in settings.indexes or INDEXES:
        by_warm = group_by(by_index[index_name], "warm")
        warm, cold = by_warm[True], by_warm[False]
        rows = []
        for w, c in zip(warm, cold):
            rows.append(
                (
                    f"{w.size_mb:.4f}",
                    f"{w.latency_ns:.0f}",
                    f"{c.latency_ns:.0f}",
                    f"{c.latency_ns / max(w.latency_ns, 1e-9):.2f}x",
                )
            )
        parts.append(f"index={index_name}")
        parts.append(
            format_table(
                ["size MB", "warm ns", "cold ns", "cold/warm"], rows
            )
        )
        parts.append("")
    return "\n".join(parts)
