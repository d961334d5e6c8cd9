"""Table 2: fastest variant of each index vs hashing, 32-bit amzn.

The paper compares the lowest-latency configuration of every structure
against CuckooMap (32-bit keys only) and RobinHash on a 32-bit amzn
dataset: hashes win on latency at a large memory cost.
"""

from __future__ import annotations

from typing import List

from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments.common import (
    fastest,
    group_by,
    measure_cells,
    sweep_cells,
)
from repro.bench.report import format_table

SWEPT = ["PGM", "RS", "RMI", "BTree", "IBTree", "FAST"]
HASHES = ["CuckooMap", "RobinHash"]


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for index_name in SWEPT:
        out.extend(sweep_cells("amzn", index_name, settings, key_bits=32))
    for index_name in ["BS"] + HASHES:
        out.append(
            MeasureCell.make("amzn", index_name, {}, settings, key_bits=32)
        )
    return out


def run(settings: BenchSettings) -> str:
    by_index = group_by(measure_cells(cells(settings)), "index")
    rows = []
    # BS and the hashes have one configuration each: a one-cell sweep.
    for index_name in SWEPT + ["BS"] + HASHES:
        m = fastest(by_index[index_name])
        size = "0.0 MB" if index_name == "BS" else f"{m.size_mb:.3f} MB"
        rows.append((m.index, f"{m.latency_ns:.2f} ns", size))
    return (
        "Table 2: fastest variant of each index vs hashing (amzn, 32-bit)\n\n"
        + format_table(["Method", "Time", "Size"], rows)
    )
