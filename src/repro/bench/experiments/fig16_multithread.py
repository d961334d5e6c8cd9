"""Figure 16: multithreaded throughput (a: threads, b: size, c: misses/s).

Configurations are pinned to the paper's setup: models sized near the
scaled equivalent of 50 MB on 200M keys (0.25 bytes/key), RobinHash at
full size, threads swept 1..40 with and without fences.  Throughput comes
from the counter-driven machine model (see repro.serve.contention).
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments.common import (
    closest_to_size,
    group_by,
    measure_cells,
    sweep_cells,
)
from repro.bench.harness import Measurement
from repro.bench.report import format_table
from repro.serve.contention import MachineModel, throughput

INDEXES = ["RMI", "PGM", "RS", "RBS", "ART", "BTree", "IBTree", "FAST"]
THREADS = [1, 2, 4, 8, 16, 20, 24, 32, 40]
#: Paper: 50 MB over 200M keys.
BYTES_PER_KEY = 50 * 1024 * 1024 / 200_000_000


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for index_name in settings.indexes or INDEXES:
        out.extend(sweep_cells("amzn", index_name, settings))
    out.append(MeasureCell.make("amzn", "RobinHash", {}, settings))
    return out


def run(settings: BenchSettings) -> str:
    machine = MachineModel()
    # cells() lists the RobinHash cell after every sweep.
    *swept, robin = measure_cells(cells(settings))
    by_index = group_by(swept, "index")
    target = BYTES_PER_KEY * robin.n_keys
    pinned: Dict[str, Measurement] = {
        index_name: closest_to_size(by_index[index_name], target)
        for index_name in settings.indexes or INDEXES
    }
    pinned["RobinHash"] = robin
    parts = [
        "Figure 16a: throughput vs threads, amzn "
        f"(~{BYTES_PER_KEY:.2f} B/key models; RobinHash full size)\n"
    ]
    for fence in (False, True):
        rows = []
        for name, m in pinned.items():
            row: List[str] = [name]
            for t in THREADS:
                p = throughput(m, t, fence=fence, machine=machine)
                row.append(f"{p.lookups_per_sec / 1e6:.1f}")
            rows.append(tuple(row))
        parts.append("with fence" if fence else "no fence")
        parts.append(
            format_table(
                ["index"] + [f"{t}T (M/s)" for t in THREADS], rows
            )
        )
        parts.append("")

    # 16b: size vs 40-thread throughput.
    rows_b = []
    for m in swept:
        p = throughput(m, 40, machine=machine)
        rows_b.append(
            (m.index, f"{m.size_mb:.4f}", f"{p.lookups_per_sec / 1e6:.1f}")
        )
    parts.append("Figure 16b: size vs 40-thread throughput")
    parts.append(
        format_table(["index", "size MB", "40T throughput (M/s)"], rows_b)
    )
    parts.append("")

    # 16c: cache misses per second at each thread count (fence variant,
    # like the paper's figure).
    rows_c = []
    for name, m in pinned.items():
        row = [name]
        for t in THREADS:
            p = throughput(m, t, fence=True, machine=machine)
            row.append(f"{p.cache_misses_per_sec / 1e6:.0f}")
        rows_c.append(tuple(row))
    parts.append("Figure 16c: cache misses per second (millions), fence")
    parts.append(format_table(["index"] + [f"{t}T" for t in THREADS], rows_c))
    parts.append("")

    # Relative speedups (the paper's online extension, rm.cab/lis8).
    rows_s = []
    for name, m in pinned.items():
        p = throughput(m, 40, machine=machine)
        rows_s.append((name, f"{p.speedup:.1f}x"))
    parts.append("relative speedup at 40 threads (paper: FAST ~32x, PGM ~27x, RobinHash ~20x)")
    parts.append(format_table(["index", "speedup"], rows_s))
    return "\n".join(parts)
