"""Extension experiment: learned-index variants beyond the paper's three.

Compares the paper's RMI/PGM/RS against the extensions implemented here
-- the three-stage RMI (Section 3.1's generalization) and FITing-Tree
(reference [14], which the paper could not benchmark for lack of a public
tuned implementation) -- on the same Pareto axes as Figure 7.
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
from repro.core.pareto import ParetoPoint, pareto_front

INDEXES = ["RMI", "RMI3", "PGM", "FITing", "RS"]
DATASETS = ["amzn", "osm"]


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        for index_name in settings.indexes or INDEXES:
            out.extend(sweep_cells(ds_name, index_name, settings))
    return out


def run(settings: BenchSettings) -> str:
    parts = [
        "Extension: learned-index variants (RMI3 = three-stage RMI, "
        "FITing = FITing-Tree)\n"
    ]
    by_dataset = group_by(measure_cells(cells(settings)), "dataset")
    for ds_name in [d for d in DATASETS if d in settings.datasets] or DATASETS:
        measurements = by_dataset[ds_name]
        points = [
            ParetoPoint(m.index, m.size_bytes, m.latency_ns, m.config)
            for m in measurements
        ]
        front = {
            (p.index, p.size_bytes, p.latency_ns) for p in pareto_front(points)
        }
        rows = [
            (
                m.index,
                f"{m.size_mb:.4f}",
                f"{m.latency_ns:.0f}",
                f"{m.avg_log2_bound:.2f}",
                "*" if (m.index, m.size_bytes, m.latency_ns) in front else "",
            )
            for m in sorted(measurements, key=lambda m: (m.index, m.size_bytes))
        ]
        parts.append(f"dataset={ds_name}")
        parts.append(
            format_table(
                ["index", "size MB", "lookup ns", "log2 err", "pareto"], rows
            )
        )
        parts.append("")
    return "\n".join(parts)
