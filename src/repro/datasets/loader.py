"""Dataset objects: keys + payloads, 32/64-bit variants, caching.

The paper's setup (Section 4.1.2): each dataset is a sorted array of
unique unsigned integer keys with a random 8-byte payload per key; lookups
sum the payloads of the looked-up keys to verify correctness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.datasets.generators import ALL_GENERATORS, GENERATORS, sorted_unique

#: The paper's four evaluation datasets (synthetic extras such as
#: ``uniform`` and ``lognormal`` are also loadable by name, but stay out
#: of the experiment defaults, as in the paper).
DATASET_NAMES = tuple(sorted(GENERATORS))
ALL_DATASET_NAMES = tuple(sorted(ALL_GENERATORS))

#: In-process memo so experiments that share a dataset build it once.
#: Its arrays are read-only: every caller shares them, and an index
#: build reads its keys from them without a copy.
_CACHE: Dict[Tuple, "Dataset"] = {}


@dataclass
class Dataset:
    """A sorted unique key array with payloads."""

    name: str
    keys: np.ndarray
    payloads: np.ndarray
    key_bits: int = 64
    seed: int = 0

    @property
    def n(self) -> int:
        return len(self.keys)

    def cdf(self, sample: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """(keys, relative positions) pairs for CDF plots (Figure 6)."""
        n = self.n
        positions = np.arange(n, dtype=np.float64) / n
        if sample is not None and sample < n:
            idx = np.linspace(0, n - 1, sample).astype(np.int64)
            return self.keys[idx], positions[idx]
        return self.keys, positions

    def checksum(self, positions: np.ndarray) -> int:
        """Sum of payloads at the given positions (lookup verification)."""
        return int(np.sum(self.payloads[np.asarray(positions, dtype=np.int64)]))

    def stats(self) -> dict:
        """Descriptive statistics used by the fig6 experiment."""
        gaps = np.diff(self.keys.astype(np.float64))
        return {
            "n": self.n,
            "min": int(self.keys[0]),
            "max": int(self.keys[-1]),
            "mean_gap": float(gaps.mean()),
            "gap_cv": float(gaps.std() / gaps.mean()) if gaps.mean() else 0.0,
            "max_gap": float(gaps.max()),
        }


def _to_32bit(keys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Scale 64-bit keys into 32 bits preserving the CDF shape.

    The paper "scales down the amzn dataset from 64 to 32 bits"
    (Section 4.2.2).  We map keys affinely onto [1, 2**32 - 1] and
    deduplicate; the resulting array keeps the same normalized CDF.
    """
    lo = float(keys[0])
    hi = float(keys[-1])
    span = max(hi - lo, 1.0)
    scaled = (keys.astype(np.float64) - lo) / span
    out = (scaled * float((1 << 32) - 2)).astype(np.uint64) + 1
    return sorted_unique(out)


def make_dataset(
    name: str,
    n_keys: int,
    seed: int = 0,
    key_bits: int = 64,
    cache_dir: Optional[str] = None,
) -> Dataset:
    """Build (or fetch from cache) one of the four benchmark datasets.

    Parameters
    ----------
    name:
        One of ``amzn``, ``face``, ``osm``, ``wiki``.
    n_keys:
        Number of unique keys (the paper uses 200M; defaults downstream
        are scaled to interpreter speed -- see DESIGN.md).
    key_bits:
        64 (default) or 32.  The 32-bit variant affinely rescales the
        64-bit keys, as the paper does for amzn, so the CDF shape is
        identical; note deduplication may drop a few keys.
    cache_dir:
        Optional directory for ``.npz`` disk caching across processes.
    """
    if name not in ALL_GENERATORS:
        raise KeyError(f"unknown dataset {name!r}; known: {ALL_DATASET_NAMES}")
    if key_bits not in (32, 64):
        raise ValueError("key_bits must be 32 or 64")
    if n_keys < 2:
        raise ValueError("n_keys must be >= 2")

    memo_key = (name, n_keys, seed, key_bits)
    if memo_key in _CACHE:
        return _CACHE[memo_key]

    cache_path = None
    if cache_dir is not None:
        cache_path = os.path.join(
            cache_dir, f"{name}_{n_keys}_{seed}_{key_bits}.npz"
        )
        if os.path.exists(cache_path):
            with np.load(cache_path) as f:
                ds = Dataset(name, f["keys"], f["payloads"], key_bits, seed)
            return _memoize(memo_key, ds)

    rng = np.random.default_rng(seed + 0xD5)
    keys = ALL_GENERATORS[name](n_keys, seed=seed)
    if key_bits == 32:
        keys = _to_32bit(keys, rng)
    # 8-byte payload slots holding values < 2**32 so that checksums of
    # realistic workload sizes never overflow 64-bit accumulation.
    payloads = rng.integers(0, 1 << 32, size=len(keys), dtype=np.int64).astype(
        np.uint64
    )
    ds = Dataset(name, keys, payloads, key_bits, seed)

    if cache_path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        np.savez_compressed(cache_path, keys=keys, payloads=payloads)
    return _memoize(memo_key, ds)


def _memoize(memo_key: Tuple, ds: Dataset) -> Dataset:
    ds.keys.setflags(write=False)
    ds.payloads.setflags(write=False)
    _CACHE[memo_key] = ds
    return ds
