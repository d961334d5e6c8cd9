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

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.bench.harness import Measurement, measure_index
from repro.datasets.loader import Dataset, make_dataset
from repro.datasets.workload import Workload, make_workload
from repro.obs.phase import profiling_enabled
from repro.records import to_dict


@functools.lru_cache(maxsize=None)
def cell_inputs(
    dataset: str, n_keys: int, seed: int, key_bits: int, lookups: int
) -> Tuple[Dataset, Workload]:
    """The dataset and present-key workload a grid cell measures against.

    ``lookups`` is the cell's warmup plus measured lookup count; the
    workload is seeded at ``seed + 1``.  The arguments are every input
    that shapes the pair, so they key the memo: all cells over one
    dataset share one workload.  ``common.clear_caches`` empties it.
    """
    ds = make_dataset(dataset, n_keys, seed=seed, key_bits=key_bits)
    return ds, make_workload(ds, max(lookups, 1), seed=seed + 1)


def freeze_config(config: dict) -> Tuple[Tuple[str, object], ...]:
    """Canonical, hashable form of an index config dict."""
    return tuple(sorted(config.items()))


def freeze_counters(counters) -> Tuple[Tuple[str, float], ...]:
    """Canonical, hashable form of a perf-counter record.

    Used by the :mod:`repro.serve.sweep` tasks, whose identity includes
    the measured counters a service model is derived from.  Works for
    both :class:`~repro.memsim.counters.PerfCounters` and its float
    variant; values are JSON scalars, so the frozen form feeds straight
    into :func:`repro.bench.cache.cache_key`.
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
        """The fields that define this cell's identity: its JSON form,
        the input to the persistent cache's content hash."""
        return to_dict(self)

    def label(self) -> str:
        """Span and report label: ``index/dataset(sorted config)``."""
        config = sorted(self.config_dict().items())
        cfg = ",".join(f"{k}={v}" for k, v in config)
        label = f"{self.index}/{self.dataset}"
        return f"{label}({cfg})" if cfg else label

    def to_record(self, measurement: Measurement) -> dict:
        return measurement.to_dict()

    def from_record(self, record: dict) -> Measurement:
        """The measurement a stored record holds; raises if unusable.

        A caller that wants phase attribution cannot use a record that
        predates it (or was produced unprofiled): it re-executes, and the
        refreshed record overwrites this one, counters byte-identical.
        """
        if profiling_enabled() and "phases" not in record:
            raise ValueError("record has no phase attribution")
        return Measurement.from_dict(record)

    def materialize(self) -> Tuple[Dataset, Workload]:
        """The dataset + workload this cell measures against."""
        return cell_inputs(
            self.dataset, self.n_keys, self.seed, self.key_bits,
            self.n_lookups + self.warmup,
        )

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
