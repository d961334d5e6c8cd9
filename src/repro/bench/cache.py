"""Persistent on-disk result store.

Every cached work item -- a measurement
:class:`~repro.bench.cells.MeasureCell` or a :mod:`repro.serve.sweep`
simulation task -- hashes to a stable content key (its ``key_fields()``
plus a cache schema version); its result is stored as one small JSON
file under that key.  Re-runs and interrupted sweeps then resume instead
of recomputing -- the simulators are deterministic, so a cached record
is exactly what a fresh run would produce.

The store never branches on the kind of item.  Each item class says how
its result becomes a JSON record (``to_record``) and back
(``from_record``, which raises on a record it cannot use).  Task key
fields always carry a ``kind`` and cell key fields never do, so the two
kinds share one directory without colliding.

The JSON round-trip is lossless: floats survive ``json`` exactly (it
emits shortest round-trip reprs), and configs are restricted to JSON
scalars by construction.  Bump :data:`CACHE_SCHEMA_VERSION` whenever the
simulator or the measurement schema changes meaning; old entries are then
simply never looked up again (their keys hash differently).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from dataclasses import fields
from typing import Optional

from repro.bench.harness import Measurement
from repro.memsim.counters import PerfCounters, PerfCountersF
from repro.obs import metrics as obs_metrics

#: Bump when measurement semantics change (simulator, cost model, or the
#: record layout); this invalidates every previously cached entry.
CACHE_SCHEMA_VERSION = 1

#: Default cache location (CLI), overridable via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = os.path.join(".repro_cache", "measurements")

_COUNTER_NAMES = tuple(f.name for f in fields(PerfCountersF))


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def _content_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


def cache_key(cell, schema_version: Optional[int] = None) -> str:
    """Stable content hash of a work item's identity fields.

    Insensitive to config dict ordering (cells freeze configs sorted) and
    to Python hash randomization; sensitive to every field that changes
    what gets measured or simulated, and to the schema version.
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    return _content_hash({"schema": schema_version, "cell": cell.key_fields()})


def scenario_key(spec, schema_version: Optional[int] = None) -> str:
    """Stable content hash for a scenario-spec replay.

    Combines the measurement schema version with the spec's canonical
    JSON form (:meth:`~repro.serve.scenario.ScenarioSpec.to_dict`, which
    embeds its own scenario schema version).  Together with the content
    keys of the measurement cells a replay consumes, this identifies a
    scenario run completely: the simulators are deterministic, so (this
    key, cell keys) -> identical tables, which is what lets scenario
    results flow through the same cache-and-replay discipline as every
    measurement (``ext_tenants`` pins the reproducibility end to end).
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    return _content_hash(
        {"schema": schema_version, "scenario": spec.to_dict()}
    )


def measurement_to_record(m: Measurement) -> dict:
    """Full, lossless JSON form of a measurement (unlike ``export``'s
    flattened rows, this keeps every field needed to reconstruct)."""
    record = {
        "index": m.index,
        "dataset": m.dataset,
        "config": m.config,
        "n_keys": m.n_keys,
        "size_bytes": m.size_bytes,
        "build_seconds": m.build_seconds,
        "counters": {name: getattr(m.counters, name) for name in _COUNTER_NAMES},
        "latency_ns": m.latency_ns,
        "fence_latency_ns": m.fence_latency_ns,
        "avg_log2_bound": m.avg_log2_bound,
        "n_lookups": m.n_lookups,
        "warm": m.warm,
        "search": m.search,
        "key_bits": m.key_bits,
    }
    if m.phases is not None:
        record["phases"] = {
            phase: {name: getattr(c, name) for name in _COUNTER_NAMES}
            for phase, c in m.phases.items()
        }
    return record


def measurement_from_record(record: dict) -> Measurement:
    record = dict(record)
    record["counters"] = PerfCountersF(**record["counters"])
    phases = record.get("phases")
    if phases is not None:
        record["phases"] = {
            phase: PerfCounters(**vals) for phase, vals in phases.items()
        }
    return Measurement(**record)


class MeasurementCache:
    """Directory of ``<content-key>.json`` result records.

    One store for every work item: each entry is ``{"schema", "cell":
    <key fields>, "measurement": <the item's record>}``, whatever the
    item's kind.  Writes are atomic (temp file + ``os.replace``), so
    concurrent runs sharing a cache directory at worst redo an item,
    never corrupt one.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _path(self, cell) -> str:
        return os.path.join(self.directory, cache_key(cell) + ".json")

    def get(self, cell):
        """``cell``'s stored result, or None for a counted miss.

        A file that is present but unusable -- unreadable, not JSON, or
        a record ``cell.from_record`` rejects -- is a miss too, counted
        in ``bench.cache.rejects``; the recomputed result's :meth:`put`
        overwrites it.
        """
        try:
            with open(self._path(cell)) as f:
                record = json.load(f)["measurement"]
            result = cell.from_record(record)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.misses += 1
            obs_metrics.get_registry().counter("bench.cache.rejects").inc()
            return None
        self.hits += 1
        return result

    def put(self, cell, result) -> None:
        os.makedirs(self.directory, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "cell": cell.key_fields(),
            "measurement": cell.to_record(result),
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f, indent=1, sort_keys=True)
            os.replace(tmp, self._path(cell))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        return sum(
            1
            for n in names
            if n.endswith(".json") and not n.startswith(".tmp-")
        )

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
