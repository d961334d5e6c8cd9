"""Figure 10: 32-bit vs 64-bit keys on amzn.

The paper's finding: learned structures (which compute on 64-bit floats
regardless) barely change, while trees gain from packing twice as many
keys per cache line -- FAST doubly so, because each SIMD comparison also
covers twice the keys.
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
        for bits in (64, 32):
            out.extend(
                sweep_cells("amzn", index_name, settings, key_bits=bits)
            )
    return out


def run(settings: BenchSettings) -> str:
    parts = ["Figure 10: key size (32 vs 64 bit), amzn\n"]
    by_index = group_by(measure_cells(cells(settings)), "index")
    for index_name in settings.indexes or INDEXES:
        rows = [
            (f"{m.key_bits}-bit", f"{m.size_mb:.4f}", f"{m.latency_ns:.0f}")
            for m in by_index[index_name]
        ]
        parts.append(f"index={index_name}")
        parts.append(format_table(["keys", "size MB", "lookup ns"], rows))
        parts.append("")
    return "\n".join(parts)
