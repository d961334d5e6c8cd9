"""Shared settings for experiment drivers.

The paper runs 200M keys and 10M lookups; defaults here are scaled to
interpreter speed but every knob is overridable (CLI: ``--n-keys``,
``--n-lookups``...).  ``quick()`` returns the small preset the test suite
and pytest benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.datasets.loader import DATASET_NAMES


@dataclass
class BenchSettings:
    """Scale and scope knobs shared by all experiment drivers."""

    n_keys: int = 400_000
    n_lookups: int = 1200
    warmup: int = 300
    seed: int = 0
    datasets: List[str] = field(default_factory=lambda: list(DATASET_NAMES))
    #: Limit the per-index size sweep to this many configurations.
    max_configs: Optional[int] = None
    #: Restrict to these index names (None = experiment default).
    indexes: Optional[List[str]] = None
    #: Worker processes for the parallel runner (CLI: ``--jobs`` /
    #: ``REPRO_JOBS``); 1 = run every cell inline.
    jobs: int = 1
    #: Directory of the persistent measurement cache (None = disabled;
    #: CLI: ``--cache-dir`` / ``REPRO_CACHE_DIR``, ``--no-cache``).
    cache_dir: Optional[str] = None
    #: Attribute per-lookup counters to model/search phases (CLI:
    #: ``--profile`` / ``REPRO_OBS_PROFILE``).  Annotates measurements
    #: without changing any counter, so it too stays out of cache keys.
    profile: bool = False
    #: Directory for observability output (span JSONL, metrics snapshot,
    #: run manifest; CLI: ``--obs-dir``).  None = no files written.
    obs_dir: Optional[str] = None

    @classmethod
    def quick(cls) -> "BenchSettings":
        """Small preset for tests and pytest-benchmark runs."""
        return cls(n_keys=40_000, n_lookups=250, warmup=120, max_configs=4)


def sweep_configs(index_cls, n_keys: int, limit: Optional[int]) -> List[dict]:
    """An index's size sweep, optionally thinned to ``limit`` entries."""
    configs = index_cls.size_sweep_configs(n_keys)
    if limit is None or len(configs) <= limit:
        return configs
    step = (len(configs) - 1) / max(limit - 1, 1)
    picked = [configs[round(i * step)] for i in range(limit)]
    deduped = []
    for cfg in picked:
        if cfg not in deduped:
            deduped.append(cfg)
    return deduped
