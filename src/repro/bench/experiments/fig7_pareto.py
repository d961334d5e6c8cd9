"""Figure 7: performance / size tradeoffs on the four datasets.

For each dataset, every index in the paper's Figure 7 is measured across
its size sweep; the binary-search baseline provides the horizontal
reference line.  Points on the cross-index Pareto front are marked, which
is how the paper's headline claim ("learned structures are Pareto
optimal") is checked.
"""

from __future__ import annotations

from typing import List

from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments.common import (
    FIG7_INDEXES,
    group_by,
    measure_cells,
    sweep_cells,
)
from repro.bench.harness import Measurement
from repro.bench.report import format_table
from repro.core.pareto import ParetoPoint, pareto_front


def cells(settings: BenchSettings) -> List[MeasureCell]:
    """The measurement grid of this figure, for the parallel runner."""
    out: List[MeasureCell] = []
    indexes = settings.indexes or FIG7_INDEXES
    for ds_name in settings.datasets:
        for index_name in indexes:
            out.extend(sweep_cells(ds_name, index_name, settings))
        out.append(MeasureCell.make(ds_name, "BS", {}, settings))
    return out


def pareto_names(measurements: List[Measurement]) -> set:
    points = [
        ParetoPoint(m.index, m.size_bytes, m.latency_ns, m.config)
        for m in measurements
    ]
    return {
        (p.index, p.size_bytes, p.latency_ns) for p in pareto_front(points)
    }


def run(settings: BenchSettings) -> str:
    parts = ["Figure 7: performance / size tradeoffs (simulated ns)\n"]
    by_dataset = group_by(measure_cells(cells(settings)), "dataset")
    for ds_name, measurements in by_dataset.items():
        front = pareto_names(measurements)
        bs = next(m for m in measurements if m.index == "BS")
        rows = []
        for m in sorted(measurements, key=lambda m: (m.index, m.size_bytes)):
            if m.index == "BS":
                continue
            on_front = (m.index, m.size_bytes, m.latency_ns) in front
            rows.append(
                (
                    m.index,
                    f"{m.size_mb:.4f}",
                    f"{m.latency_ns:.0f}",
                    "*" if on_front else "",
                )
            )
        parts.append(
            f"dataset={ds_name}  (binary search baseline: {bs.latency_ns:.0f} ns)"
        )
        parts.append(
            format_table(["index", "size MB", "lookup ns", "pareto"], rows)
        )
        learned_front = {
            idx for (idx, _, _) in front if idx in ("RMI", "PGM", "RS")
        }
        parts.append(
            f"learned structures on the Pareto front: "
            f"{sorted(learned_front) if learned_front else 'none'}\n"
        )
    return "\n".join(parts)
