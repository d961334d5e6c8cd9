"""Persistent on-disk result store.

Every cached work item -- a measurement
:class:`~repro.bench.cells.MeasureCell` or a :mod:`repro.serve.sweep`
simulation task -- hashes to a stable content key
(:func:`repro.records.content_hash` of its ``key_fields()`` plus a cache
schema version); its result is stored as one small JSON file under that
key.  Re-runs and interrupted sweeps then resume instead of recomputing
-- the simulators are deterministic, so a cached record is exactly what
a fresh run would produce.

The store never branches on the kind of item.  Each item class says how
its result becomes a JSON record (``to_record``) and back
(``from_record``, which raises on a record it cannot use); both are the
:mod:`repro.records` codec of the result's record class.  Task key
fields always carry a ``kind`` and cell key fields never do, so the two
kinds share one directory without colliding.

The JSON round-trip is lossless: floats survive ``json`` exactly (it
emits shortest round-trip reprs) and the codec keeps each number's JSON
type.  Bump :data:`CACHE_SCHEMA_VERSION` whenever the simulator or the
measurement schema changes meaning; old entries are then simply never
looked up again (their keys hash differently).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from repro.obs import metrics as obs_metrics
from repro.records import content_hash

#: Bump when measurement semantics change (simulator, cost model, or the
#: record layout); this invalidates every previously cached entry.
CACHE_SCHEMA_VERSION = 1

#: Default cache location (CLI), overridable via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = os.path.join(".repro_cache", "measurements")


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def cache_key(cell, schema_version: Optional[int] = None) -> str:
    """Stable content hash of a work item's identity fields.

    Insensitive to config dict ordering (cells freeze configs sorted) and
    to Python hash randomization; sensitive to every field that changes
    what gets measured or simulated, and to the schema version.
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    return content_hash({"schema": schema_version, "cell": cell.key_fields()})


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
    return content_hash({"schema": schema_version, "scenario": spec.to_dict()})


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

        An absent file is a plain miss.  A file that is present but
        unusable -- unreadable, not JSON, or a record
        ``cell.from_record`` rejects -- is a miss counted in
        ``bench.cache.rejects``.  It is renamed to
        ``<key>.json.rejected``, where it can be inspected and where no
        lookup or :meth:`__len__` sees it; the recomputed result's
        :meth:`put` then writes a fresh record.
        """
        path = self._path(cell)
        try:
            with open(path) as f:
                record = json.load(f)["measurement"]
            result = cell.from_record(record)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.misses += 1
            obs_metrics.get_registry().counter("bench.cache.rejects").inc()
            try:
                os.replace(path, path + ".rejected")
            except OSError:
                pass  # the next put overwrites it instead
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
