"""Figure 9: performance / size tradeoffs across dataset sizes.

The paper scales amzn from 200M to 800M keys and finds learned structures
slow down only logarithmically (one extra binary-search step per
doubling).  We scale the synthetic amzn by the same 1x..4x factors.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments.common import (
    group_by,
    measure_cells,
    sweep_cells,
)
from repro.bench.report import format_table

INDEXES = ["RMI", "PGM", "RS", "BTree"]
SCALES = (1, 2, 3, 4)


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for index_name in settings.indexes or INDEXES:
        for scale in SCALES:
            scaled = replace(settings, n_keys=settings.n_keys * scale)
            out.extend(sweep_cells("amzn", index_name, scaled))
    return out


def run(settings: BenchSettings) -> str:
    parts = [
        "Figure 9: dataset-size scaling on amzn "
        f"(sizes {[settings.n_keys * s for s in SCALES]}; the paper's 200M-800M)\n"
    ]
    by_index = group_by(measure_cells(cells(settings)), "index")
    for index_name in settings.indexes or INDEXES:
        # amzn has exactly the requested key count at every scale.
        rows = [
            (
                f"{m.n_keys // settings.n_keys}x",
                m.n_keys,
                f"{m.size_mb:.4f}",
                f"{m.latency_ns:.0f}",
            )
            for m in by_index[index_name]
        ]
        parts.append(f"index={index_name}")
        parts.append(
            format_table(["scale", "keys", "size MB", "lookup ns"], rows)
        )
        parts.append("")
    return "\n".join(parts)
