"""Figure 15: memory fences.

With a fence, memory stalls of one lookup cannot overlap the next
lookup's computation.  The paper finds RMI and RS (few instructions, so
much to gain from reordering) slow down ~50% while BTree/FAST/PGM barely
move -- the cost model reproduces that coupling through its
instruction-count-dependent overlap factor.
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
        out.extend(sweep_cells("amzn", index_name, settings))
    return out


def run(settings: BenchSettings) -> str:
    parts = ["Figure 15: memory fence impact, amzn\n"]
    by_index = group_by(measure_cells(cells(settings)), "index")
    for index_name in settings.indexes or INDEXES:
        rows = []
        for m in by_index[index_name]:
            slowdown = m.fence_latency_ns / max(m.latency_ns, 1e-9)
            rows.append(
                (
                    f"{m.size_mb:.4f}",
                    f"{m.latency_ns:.0f}",
                    f"{m.fence_latency_ns:.0f}",
                    f"{slowdown:.2f}x",
                )
            )
        parts.append(f"index={index_name}")
        parts.append(
            format_table(
                ["size MB", "no fence ns", "fence ns", "slowdown"], rows
            )
        )
        parts.append("")
    return "\n".join(parts)
