"""Golden regression for the datasets: their bytes must not drift.

``tests/data/golden_datasets.json`` holds the sha256 of the keys and of
the payloads that :func:`~repro.datasets.make_dataset` returns for every
generator at 64 bits and every paper dataset at 32 bits, at 1,000 and
40,000 keys, seeds 0 and 7.  Every measurement starts from these arrays,
so a generator edit that changes one key shows here first, not only
through the golden measurements downstream.

Regenerate (only when a change is meant to alter a dataset) with::

    PYTHONPATH=src python tests/test_golden_datasets.py
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.datasets import loader
from repro.datasets.generators import ALL_GENERATORS, GENERATORS

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "data", "golden_datasets.json")


def golden_grid():
    """(name, key_bits, n_keys, seed) of every recorded dataset."""
    grid = [(name, 64) for name in sorted(ALL_GENERATORS)]
    grid += [(name, 32) for name in sorted(GENERATORS)]
    return [
        (name, bits, n_keys, seed)
        for name, bits in grid
        for n_keys in (1_000, 40_000)
        for seed in (0, 7)
    ]


def record_of(name: str, key_bits: int, n_keys: int, seed: int) -> dict:
    """Digests of one freshly generated dataset; the memo is left as it was."""
    memo_key = (name, n_keys, seed, key_bits)
    held = loader._CACHE.get(memo_key)
    loader._CACHE.pop(memo_key, None)
    try:
        ds = loader.make_dataset(name, n_keys, seed=seed, key_bits=key_bits)
    finally:
        loader._CACHE.pop(memo_key, None)
        if held is not None:
            loader._CACHE[memo_key] = held
    return {
        "name": name,
        "key_bits": key_bits,
        "n_keys": n_keys,
        "seed": seed,
        "n": ds.n,
        "keys_dtype": str(ds.keys.dtype),
        "keys_sha256": hashlib.sha256(ds.keys.tobytes()).hexdigest(),
        "payloads_sha256": hashlib.sha256(ds.payloads.tobytes()).hexdigest(),
    }


with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)


@pytest.mark.parametrize(
    "record",
    GOLDEN,
    ids=[
        f"{r['name']}-{r['key_bits']}bit-{r['n_keys']}-seed{r['seed']}"
        for r in GOLDEN
    ],
)
def test_dataset_matches_golden(record):
    fresh = record_of(
        record["name"], record["key_bits"], record["n_keys"], record["seed"]
    )
    assert fresh == record


def test_golden_covers_the_grid():
    assert [
        (r["name"], r["key_bits"], r["n_keys"], r["seed"]) for r in GOLDEN
    ] == golden_grid()


if __name__ == "__main__":
    records = [record_of(*point) for point in golden_grid()]
    with open(GOLDEN_PATH, "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")
