"""Golden regression for the hash tables: their layouts must not drift.

``tests/data/golden_hash.json`` holds the size, bound and counters of
warm and cold ``--quick``-size cells (40k keys) of RobinHash at load
factors 0.25 and 0.9 on amzn and face (64-bit keys; face holds keys
>= 2^63), and of CuckooMap on 32-bit amzn.  A lookup's counters read the
slots its probes visit, so any change to where the build puts a key
shows here.  The cells are checked on both measure paths: the batched
kernels and the per-lookup loop.

Regenerate (only when a change is meant to alter a hash table's output)
with::

    PYTHONPATH=src python tests/test_golden_hash.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.cells import MeasureCell
from test_golden_art import record_of
from test_golden_regression import (  # noqa: F401  (per_lookup_loop: fixture)
    assert_matches_golden,
    cell_of,
    per_lookup_loop,
)

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "data", "golden_hash.json")


def golden_cells():
    """RobinHash at two loads on amzn and face; CuckooMap on 32-bit amzn."""
    from repro.bench.config import BenchSettings

    settings = BenchSettings.quick()
    cells = []
    for warm in (True, False):
        for ds in ("amzn", "face"):
            for load in (0.25, 0.9):
                cells.append(MeasureCell.make(
                    ds, "RobinHash", {"load_factor": load}, settings,
                    warm=warm,
                ))
        cells.append(MeasureCell.make(
            "amzn", "CuckooMap", {}, settings, key_bits=32, warm=warm
        ))
    return cells


with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)


@pytest.mark.parametrize(
    "record",
    GOLDEN,
    ids=[
        f"{r['index']}-{r['dataset']}-{r['key_bits']}bit-"
        + ("warm" if r["warm"] else "cold")
        + "".join(f"-{k}={v}" for k, v in sorted(r["config"].items()))
        for r in GOLDEN
    ],
)
def test_hash_cell_matches_golden(record):
    assert_matches_golden(cell_of(record).run(), record)


def test_per_lookup_loop_matches_golden(per_lookup_loop):
    """The scalar lookups, the kernels' oracle, over the same tables."""
    for record in GOLDEN:
        assert_matches_golden(cell_of(record).run(), record)
    assert all(per_lookup_loop)  # every cell would have been batched


def test_golden_covers_the_grid():
    assert [cell_of(r) for r in GOLDEN] == golden_cells()


if __name__ == "__main__":
    records = [record_of(cell, cell.run()) for cell in golden_cells()]
    with open(GOLDEN_PATH, "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")
