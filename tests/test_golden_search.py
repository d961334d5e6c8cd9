"""Golden regression for the last-mile searches other than binary.

``tests/data/golden_search.json`` holds the size, bound and counters of
linear, interpolation, exponential and SIP search cells (2,000 keys,
the quick preset's lookups) for RMI, PGM, RS and BTree, each at the
widest and the narrowest config of its size sweep, on 64-bit amzn and
osm and on 32-bit amzn.  Every cell is warm; linear search is also
measured cold.  ``golden_measurements.json`` pins binary search only,
so these cells are what holds the other searches' counters still.
The cells are checked on the product path and on the per-lookup loop.

Regenerate (only when a change is meant to alter a search's output)
with::

    PYTHONPATH=src python tests/test_golden_search.py
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
GOLDEN_PATH = os.path.join(HERE, "data", "golden_search.json")

INDEXES = ("RMI", "PGM", "RS", "BTree")
SEARCHES = ("linear", "interpolation", "exponential", "sip")
#: (dataset, key bits) pairs.
INPUTS = (("amzn", 64), ("osm", 64), ("amzn", 32))


def golden_cells():
    """Each search warm, and linear cold, over both ends of every sweep."""
    from repro.bench.config import BenchSettings
    from repro.bench.experiments.common import sweep_cells

    settings = BenchSettings(
        n_keys=2_000, n_lookups=250, warmup=120, max_configs=2
    )
    cells = []
    for ds, bits in INPUTS:
        for index in INDEXES:
            for search in SEARCHES:
                for warm in (True, False) if search == "linear" else (True,):
                    cells.extend(sweep_cells(
                        ds, index, settings, key_bits=bits, warm=warm,
                        search=search,
                    ))
    return cells


with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)


@pytest.mark.parametrize(
    "record",
    GOLDEN,
    ids=[
        f"{r['index']}-{r['dataset']}-{r['key_bits']}bit-{r['search']}-"
        + ("warm" if r["warm"] else "cold")
        + "".join(f"-{k}={v}" for k, v in sorted(r["config"].items()))
        for r in GOLDEN
    ],
)
def test_search_cell_matches_golden(record):
    assert_matches_golden(cell_of(record).run(), record)


def test_per_lookup_loop_matches_golden(per_lookup_loop):
    """Every cell on the per-lookup loop, the searches' reference."""
    for record in GOLDEN:
        assert_matches_golden(cell_of(record).run(), record)
    # The linear cells would have been batched.
    assert sum(per_lookup_loop) == sum(r["search"] == "linear" for r in GOLDEN)


def test_golden_covers_the_grid():
    assert [cell_of(r) for r in GOLDEN] == golden_cells()


if __name__ == "__main__":
    records = [record_of(cell, cell.run()) for cell in golden_cells()]
    with open(GOLDEN_PATH, "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")
