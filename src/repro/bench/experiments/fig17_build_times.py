"""Figure 17: single-threaded build times across dataset sizes.

Build times are real wall-clock seconds of this library's builds (they
are not simulated): unlike lookup latency, builds are dominated by the
number of passes over the data, which the Python implementations share
with their C++ counterparts.  EXPERIMENTS.md discusses where interpreter
overhead distorts the comparison (pure-Python streaming fits vs
vectorized training).
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
from repro.bench.harness import build_index
from repro.bench.report import format_table
from repro.datasets.loader import make_dataset

INDEXES = [
    "PGM",
    "RS",
    "RMI",
    "RBS",
    "ART",
    "BTree",
    "IBTree",
    "FAST",
    "FST",
    "Wormhole",
    "RobinHash",
]
SCALES = (1, 2, 3, 4)


def cells(settings: BenchSettings) -> List[MeasureCell]:
    """Only the config-picking sweeps are cellable; the scaled builds
    themselves are wall-clock measurements, not simulated cells."""
    out: List[MeasureCell] = []
    for index_name in settings.indexes or INDEXES:
        out.extend(sweep_cells("amzn", index_name, settings))
    return out


def run(settings: BenchSettings) -> str:
    # "Fastest variant" configs picked at base size.
    by_index = group_by(measure_cells(cells(settings)), "index")
    configs = {}
    for index_name in settings.indexes or INDEXES:
        ms = by_index[index_name]
        configs[index_name] = fastest(ms).config if ms else {}

    rows = []
    for index_name, config in configs.items():
        row = [index_name, str(config)]
        for scale in SCALES:
            scaled_ds = make_dataset(
                "amzn", settings.n_keys * scale, seed=settings.seed
            )
            built = build_index(scaled_ds, index_name, config)
            row.append(f"{built.index.build_seconds:.3f}")
        rows.append(tuple(row))
    header = ["index", "config"] + [
        f"{settings.n_keys * s} keys (s)" for s in SCALES
    ]
    return (
        "Figure 17: build times (wall-clock seconds, fastest variant per index)\n\n"
        + format_table(header, rows)
    )
