"""Persistent on-disk measurement cache.

Each :class:`~repro.bench.cells.MeasureCell` hashes to a stable content
key (dataset name/size/seed/key-bits, index name, sorted config, workload
parameters, plus a cache schema version); its measurement is stored as
one small JSON file under that key.  Re-runs and interrupted sweeps then
resume instead of recomputing -- the simulator is deterministic, so a
cached record is exactly what a fresh run would produce.

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

from repro.bench.cells import MeasureCell
from repro.bench.harness import Measurement
from repro.memsim.counters import PerfCounters, PerfCountersF
from repro.obs.phase import profiling_enabled

#: Bump when measurement semantics change (simulator, cost model, or the
#: record layout); this invalidates every previously cached entry.
CACHE_SCHEMA_VERSION = 1

#: Default cache location (CLI), overridable via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = os.path.join(".repro_cache", "measurements")

_COUNTER_NAMES = tuple(f.name for f in fields(PerfCountersF))


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def cache_key(cell: MeasureCell, schema_version: Optional[int] = None) -> str:
    """Stable content hash of a cell's identity fields.

    Insensitive to config dict ordering (cells freeze configs sorted) and
    to Python hash randomization; sensitive to every field that changes
    what gets measured, and to the schema version.
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    payload = {"schema": schema_version, "cell": cell.key_fields()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


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
    payload = {"schema": schema_version, "scenario": spec.to_dict()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


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


def sim_key(task, schema_version: Optional[int] = None) -> str:
    """Stable content hash of a simulation task's identity fields.

    ``task`` is any object with a ``key_fields() -> dict`` of JSON
    scalars (the :mod:`repro.serve.sweep` task dataclasses).  Like
    :func:`cache_key`, the hash canonicalizes ordering and embeds the
    schema version.  The serving engine is deliberately NOT part of any
    task's key fields: engines are byte-identical, so one cached record
    serves both (``tests/test_serve_sweep.py`` pins this invariance).
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    payload = {"schema": schema_version, "sim": task.key_fields()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


def _read_record(path: str, field: str) -> Optional[dict]:
    """The ``field`` object of the cache entry at ``path``, if it has one.

    None when the file is missing, unreadable or not JSON, and also when
    it is well-formed JSON of the wrong shape (a foreign or hand-edited
    file).  Callers count every None as a miss; the recomputed result's
    ``put`` then overwrites the file.
    """
    try:
        with open(path) as f:
            record = json.load(f)[field]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return record if isinstance(record, dict) else None


class MeasurementCache:
    """Directory of ``<content-key>.json`` measurement records.

    Writes are atomic (temp file + ``os.replace``), so concurrent runs
    sharing a cache directory at worst redo a cell, never corrupt one.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _path(self, cell: MeasureCell) -> str:
        return os.path.join(self.directory, cache_key(cell) + ".json")

    def get(self, cell: MeasureCell) -> Optional[Measurement]:
        record = _read_record(self._path(cell), "measurement")
        # A caller that wants phase attribution re-executes a record that
        # predates it (or was produced unprofiled).  The refreshed record
        # overwrites this one, counters byte-identical.
        if record is None or (profiling_enabled() and "phases" not in record):
            self.misses += 1
            return None
        try:
            measurement = measurement_from_record(record)
        except (KeyError, TypeError, ValueError, AttributeError):
            self.misses += 1  # wrong-shaped record: recompute, overwrite
            return None
        self.hits += 1
        return measurement

    def put(self, cell: MeasureCell, measurement: Measurement) -> None:
        os.makedirs(self.directory, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "cell": cell.key_fields(),
            "measurement": measurement_to_record(measurement),
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


class SimResultCache:
    """Directory of ``<sim-key>.json`` simulation-result records.

    The serving analogue of :class:`MeasurementCache`: each
    :mod:`repro.serve.sweep` task stores its (JSON-able) result record
    under the task's :func:`sim_key`.  Lives in its own subdirectory
    (conventionally ``<cache_dir>/serving/``) so measurement-cache
    bookkeeping (``MeasurementCache.__len__``) is unaffected.  Writes
    are atomic, so concurrent sweeps sharing a directory at worst redo
    a simulation, never corrupt a record.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _path(self, task) -> str:
        return os.path.join(self.directory, sim_key(task) + ".json")

    def get(self, task) -> Optional[dict]:
        record = _read_record(self._path(task), "result")
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, task, result: dict) -> None:
        os.makedirs(self.directory, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "sim": task.key_fields(),
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f, indent=1, sort_keys=True)
            os.replace(tmp, self._path(task))
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
