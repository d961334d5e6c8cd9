"""Measurement cells: one picklable task per experiment-grid point.

The paper's evaluation grid is embarrassingly parallel -- every
(index, config, dataset, workload) combination is an independent
measurement.  A :class:`MeasureCell` captures one such combination as
plain scalars, so it can be hashed (persistent cache keys), pickled
(process-pool fan-out) and re-executed deterministically in any process:
datasets and workloads are reconstructed from their seeds, and the
simulated CPU makes the resulting counters exact, not statistical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.bench.harness import Measurement, measure_index
from repro.datasets.loader import Dataset, make_dataset
from repro.datasets.workload import Workload, make_workload


def freeze_config(config: dict) -> Tuple[Tuple[str, object], ...]:
    """Canonical, hashable form of an index config dict."""
    return tuple(sorted(config.items()))


def freeze_counters(counters) -> Tuple[Tuple[str, float], ...]:
    """Canonical, hashable form of a perf-counter record.

    Used by the :mod:`repro.serve.sweep` tasks, whose identity includes
    the measured counters a service model is derived from.  Works for
    both :class:`~repro.memsim.counters.PerfCounters` and its float
    variant; values are JSON scalars, so the frozen form feeds straight
    into :func:`repro.bench.cache.sim_key`.
    """
    from dataclasses import fields as _fields

    return tuple(
        (f.name, float(getattr(counters, f.name)))
        for f in sorted(_fields(counters), key=lambda f: f.name)
    )


@dataclass(frozen=True)
class MeasureCell:
    """One grid point: everything needed to reproduce one measurement.

    All fields are primitives (the config dict is frozen into sorted
    pairs), so a cell is hashable, picklable, and JSON-able -- the same
    object serves as in-process memo key, persistent cache key material,
    and process-pool work item.
    """

    dataset: str
    #: Requested key count (pre 32-bit dedup; the generator input).
    n_keys: int
    seed: int
    key_bits: int
    index: str
    config: Tuple[Tuple[str, object], ...]
    n_lookups: int
    warmup: int
    warm: bool = True
    search: str = "binary"

    @classmethod
    def make(
        cls,
        dataset: str,
        index: str,
        config: dict,
        settings,
        key_bits: int = 64,
        warm: bool = True,
        search: str = "binary",
    ) -> "MeasureCell":
        """Build a cell from a config dict plus :class:`BenchSettings`."""
        return cls(
            dataset=dataset,
            n_keys=settings.n_keys,
            seed=settings.seed,
            key_bits=key_bits,
            index=index,
            config=freeze_config(config),
            n_lookups=settings.n_lookups,
            warmup=settings.warmup,
            warm=warm,
            search=search,
        )

    def config_dict(self) -> dict:
        return dict(self.config)

    def key_fields(self) -> dict:
        """The fields that define this cell's identity, as a plain dict.

        This is the input to the persistent cache's content hash; field
        order does not matter (the hash canonicalizes), but values must
        stay JSON-scalar.
        """
        return {
            "dataset": self.dataset,
            "n_keys": self.n_keys,
            "seed": self.seed,
            "key_bits": self.key_bits,
            "index": self.index,
            "config": self.config_dict(),
            "n_lookups": self.n_lookups,
            "warmup": self.warmup,
            "warm": self.warm,
            "search": self.search,
        }

    def materialize(self) -> Tuple[Dataset, Workload]:
        """Rebuild the dataset + workload this cell measures against.

        Mirrors ``common.dataset_and_workload`` exactly: the workload
        covers warmup plus measured lookups and is seeded at ``seed + 1``.
        """
        ds = make_dataset(
            self.dataset, self.n_keys, seed=self.seed, key_bits=self.key_bits
        )
        lookups = max(self.n_lookups + self.warmup, 1)
        wl = make_workload(ds, lookups, seed=self.seed + 1)
        return ds, wl

    def run(
        self,
        dataset: Optional[Dataset] = None,
        workload: Optional[Workload] = None,
        profile: Optional[bool] = None,
    ) -> Measurement:
        """Execute the cell; pass dataset/workload to reuse built objects.

        ``profile`` (None = ambient ``REPRO_OBS_PROFILE``) is deliberately
        NOT part of the cell's identity or :meth:`key_fields`: phase
        attribution annotates a measurement without changing any of its
        counters, so the same cached measurement serves either.
        """
        if dataset is None or workload is None:
            dataset, workload = self.materialize()
        return measure_index(
            dataset,
            workload,
            self.index,
            self.config_dict(),
            n_lookups=self.n_lookups,
            warmup=self.warmup,
            warm=self.warm,
            search=self.search,
            profile=profile,
        )
