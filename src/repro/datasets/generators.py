"""Synthetic key generators matching the four SOSD dataset distributions.

Each generator returns a sorted array of *unique* uint64 keys (SOSD also
deduplicates).  The generators oversample and then subsample to hit the
requested count exactly, so every dataset has precisely ``n`` keys.

Distribution design notes (see DESIGN.md Section 3):

* ``amzn`` -- cumulative sums of heavy-tailed gaps: a globally smooth CDF
  with local noise, the regime where learned structures shine.
* ``face`` -- uniform IDs plus ~100 enormous outliers near 2**64, which
  ruin the top radix bits (the paper's explanation for RBS's collapse).
* ``osm`` -- Hilbert-encoded clustered 2-D points: locally erratic CDF
  that is hard for every learned structure.
* ``wiki`` -- bursty timestamps with diurnal/weekly seasonality: smooth
  with steps.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.datasets.hilbert import hilbert_d_from_xy

#: Number of extreme outlier keys injected into ``face`` (paper: ~100).
FACE_N_OUTLIERS = 100


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-D integer array: one sort and a mask
    that keeps each key unequal to its left neighbour.  numpy 2's
    ``np.unique`` goes through a hash table and takes about 30 times as
    long on a generator's 126k unsorted keys."""
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _finalize(raw: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Deduplicate, subsample to exactly n, sort, cast to uint64."""
    unique = sorted_unique(raw.astype(np.uint64))
    if len(unique) < n:
        raise ValueError(
            f"generator produced only {len(unique)} unique keys, need {n}; "
            "increase the oversampling factor"
        )
    if len(unique) > n:
        chosen = rng.choice(len(unique), size=n, replace=False)
        unique = unique[np.sort(chosen)]
    return unique


def generate_amzn(n: int, seed: int = 0) -> np.ndarray:
    """Book-popularity-like keys: cumulative heavy-tailed gaps.

    Gaps are drawn from a lognormal whose scale slowly drifts (mixture of
    regimes), yielding a CDF that is smooth at zoom-out but has locally
    varying density -- piecewise learnable, like the real amzn data.
    """
    rng = np.random.default_rng(seed)
    m = int(n * 1.05) + 16
    # Regime-switching gap scale: a few hundred segments of differing density.
    n_segments = max(8, m // 2000)
    seg_scales = rng.lognormal(mean=0.0, sigma=1.1, size=n_segments)
    seg_lengths = rng.multinomial(m, np.ones(n_segments) / n_segments)
    scales = np.repeat(seg_scales, seg_lengths)[:m]
    gaps = rng.lognormal(mean=2.0, sigma=0.6, size=m) * scales
    keys = np.cumsum(gaps)
    # Scale into a 40-bit-ish range so 32-bit downscaling stays faithful.
    keys = keys / keys[-1] * float(1 << 40)
    return _finalize(keys + 1.0, n, rng)


def generate_face(n: int, seed: int = 0) -> np.ndarray:
    """User-ID-like keys: uniform over ~2**50 plus ~100 outliers near 2**64."""
    rng = np.random.default_rng(seed)
    m = int(n * 1.05) + FACE_N_OUTLIERS + 16
    body = rng.integers(1, 1 << 50, size=m, dtype=np.int64).astype(np.uint64)
    out_lo, out_hi = 1 << 59, (1 << 64) - 1024
    outliers = rng.integers(out_lo, out_hi, size=FACE_N_OUTLIERS, dtype=np.uint64)
    body = _finalize(body, n - FACE_N_OUTLIERS, rng)
    keys = sorted_unique(np.concatenate([body, outliers]))
    # Outlier collisions with each other are astronomically unlikely, but
    # keep the contract exact regardless.
    while len(keys) < n:
        extra = rng.integers(out_lo, out_hi, size=n - len(keys), dtype=np.uint64)
        keys = sorted_unique(np.concatenate([keys, extra]))
    return keys[:n]


def generate_osm(n: int, seed: int = 0, order: int = 21) -> np.ndarray:
    """Hilbert cell IDs of clustered 2-D points.

    Points are a mixture of Gaussian "cities" (80%), elongated "roads"
    (10%) and uniform background (10%), embedded on a 2**order grid and
    encoded with a real Hilbert curve.  The projection produces a CDF with
    erratic local structure, the property the paper identifies as what
    makes osm hard to learn.
    """
    rng = np.random.default_rng(seed)
    m = int(n * 1.3) + 64
    n_clusters = 48
    centers = rng.random((n_clusters, 2))
    widths = rng.lognormal(mean=-4.2, sigma=0.8, size=n_clusters)
    weights = rng.dirichlet(np.ones(n_clusters) * 0.5)

    n_city = int(m * 0.8)
    n_road = int(m * 0.1)
    n_bg = m - n_city - n_road

    assignment = rng.choice(n_clusters, size=n_city, p=weights)
    pts_city = centers[assignment] + rng.normal(
        scale=widths[assignment][:, None], size=(n_city, 2)
    )

    # "Roads": points along segments between random cluster pairs.
    a = centers[rng.choice(n_clusters, size=n_road)]
    b = centers[rng.choice(n_clusters, size=n_road)]
    t = rng.random((n_road, 1))
    pts_road = a + t * (b - a) + rng.normal(scale=2e-4, size=(n_road, 2))

    pts_bg = rng.random((n_bg, 2))

    pts = np.clip(np.vstack([pts_city, pts_road, pts_bg]), 0.0, 1.0 - 1e-12)
    side = 1 << order
    grid = (pts * side).astype(np.int64)
    keys = hilbert_d_from_xy(order, grid[:, 0], grid[:, 1])
    return _finalize(keys, n, rng)


def generate_wiki(n: int, seed: int = 0) -> np.ndarray:
    """Edit-timestamp-like keys: bursty, seasonal arrival process.

    Seconds-resolution timestamps over ~15 simulated years whose arrival
    rate carries diurnal and weekly cycles plus random burst events; the
    CDF is smooth with steps, like the real wiki edit log.
    """
    rng = np.random.default_rng(seed)
    m = int(n * 1.4) + 16
    # Piecewise-constant rate over hourly buckets for ~15 years.
    n_hours = 15 * 365 * 24
    hours = np.arange(n_hours)
    diurnal = 1.0 + 0.6 * np.sin(2 * np.pi * (hours % 24) / 24.0)
    weekly = 1.0 + 0.25 * np.sin(2 * np.pi * (hours % (24 * 7)) / (24.0 * 7))
    rate = diurnal * weekly
    # Bursts: a few hundred events with geometric decay over hours.
    n_bursts = 300
    burst_starts = rng.choice(n_hours - 48, size=n_bursts)
    burst_heights = rng.pareto(1.5, size=n_bursts) * 2.0
    for start, height in zip(burst_starts, burst_heights):
        rate[start : start + 24] += height * np.exp(-np.arange(24) / 6.0)
    cdf = np.cumsum(rate)
    cdf /= cdf[-1]
    # Inverse-CDF sample arrival hours, then spread uniformly within hour.
    # Searching in sorted order walks the CDF once instead of m times.
    u = rng.random(m)
    order = np.argsort(u)
    idx = np.empty(m, dtype=np.intp)
    idx[order] = np.searchsorted(cdf, u[order])
    base_epoch = 1_040_000_000  # arbitrary epoch offset (late 2002)
    seconds = base_epoch + idx * 3600 + (rng.random(m) * 3600.0).astype(np.int64)
    return _finalize(seconds, n, rng)


def generate_uniform(n: int, seed: int = 0) -> np.ndarray:
    """Uniform random keys over the full 64-bit space.

    The paper excludes synthetic data from its evaluation ("entirely
    random, in which case there is no possibility of learning an
    effective model") but the SOSD suite ships it; it is provided here
    for exactly that discussion -- e.g. showing RBS/linear models excel
    while there is nothing to learn.
    """
    rng = np.random.default_rng(seed)
    m = int(n * 1.05) + 16
    keys = rng.integers(1, (1 << 64) - 1, size=m, dtype=np.uint64)
    return _finalize(keys, n, rng)


def generate_lognormal(n: int, seed: int = 0) -> np.ndarray:
    """Lognormally distributed keys (SOSD's classic synthetic dataset).

    Drawn from a known closed-form distribution, so "learning the
    distribution is trivial" (paper Section 4.1.2) -- the easy case for
    learned structures.
    """
    rng = np.random.default_rng(seed)
    m = int(n * 1.05) + 16
    raw = rng.lognormal(mean=0.0, sigma=2.0, size=m)
    keys = (raw / raw.max() * float(1 << 56)).astype(np.uint64) + 1
    return _finalize(keys, n, rng)


#: The paper's four real-world dataset distributions.
GENERATORS: Dict[str, Callable[..., np.ndarray]] = {
    "amzn": generate_amzn,
    "face": generate_face,
    "osm": generate_osm,
    "wiki": generate_wiki,
}

#: Extra synthetic distributions (SOSD ships these; the paper's Section
#: 4.1.2 explains why they are excluded from the headline evaluation).
SYNTHETIC_GENERATORS: Dict[str, Callable[..., np.ndarray]] = {
    "uniform": generate_uniform,
    "lognormal": generate_lognormal,
}

ALL_GENERATORS: Dict[str, Callable[..., np.ndarray]] = {
    **GENERATORS,
    **SYNTHETIC_GENERATORS,
}
