"""Golden regression for ART: the fig7 ``--quick`` sweep must not drift.

``tests/data/golden_art.json`` holds the size, bound and counters of every
ART cell in ``--experiment fig7 --quick`` (four datasets, 40k keys), plus
the same sweep over 32-bit keys and with ``sampling="adaptive"``.  It was
recorded with the recursive, one-object-per-node builder; the flat builder
must reproduce it exactly.

Regenerate (only when a change is meant to alter ART's output) with::

    PYTHONPATH=src python tests/test_golden_art.py
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import pytest

from repro.bench.cells import MeasureCell, freeze_config
from test_golden_regression import assert_matches_golden, cell_of

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "data", "golden_art.json")

DATASETS = ("amzn", "face", "osm", "wiki")


def golden_cells():
    """The recorded grid: the fig7 quick ART sweep, 32-bit, adaptive."""
    from repro.bench.config import BenchSettings
    from repro.bench.experiments.common import sweep_cells

    settings = BenchSettings.quick()
    cells = []
    for ds in DATASETS:
        cells.extend(sweep_cells(ds, "ART", settings))
    for ds in DATASETS:
        cells.extend(sweep_cells(ds, "ART", settings, key_bits=32))
    for ds in DATASETS:
        for cell in sweep_cells(ds, "ART", settings):
            config = dict(cell.config, sampling="adaptive")
            if config["gap"] > 1:
                cells.append(
                    MeasureCell(**dict(asdict(cell), config=freeze_config(config)))
                )
    return cells


def record_of(cell: MeasureCell, m) -> dict:
    return {
        **cell.key_fields(),
        "size_bytes": m.size_bytes,
        "latency_ns": m.latency_ns,
        "fence_latency_ns": m.fence_latency_ns,
        "avg_log2_bound": m.avg_log2_bound,
        "counters": asdict(m.counters),
    }


with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)


@pytest.mark.parametrize(
    "record",
    GOLDEN,
    ids=[
        f"{r['dataset']}-{r['key_bits']}bit-"
        + "-".join(f"{k}={v}" for k, v in sorted(r["config"].items()))
        for r in GOLDEN
    ],
)
def test_art_cell_matches_golden(record):
    assert_matches_golden(cell_of(record).run(), record)


def test_golden_covers_the_sweep():
    assert [cell_of(r) for r in GOLDEN] == golden_cells()


if __name__ == "__main__":
    records = [record_of(cell, cell.run()) for cell in golden_cells()]
    with open(GOLDEN_PATH, "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")
