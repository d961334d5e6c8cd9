"""Run sinks: JSONL event streams plus a self-describing run manifest.

Every observed run writes three artifacts next to its exports, so a
results directory explains itself months later:

* ``manifest.json`` -- git SHA, settings + their content hash, seed,
  interpreter/numpy versions, argv, schema version.
* ``spans.jsonl`` -- one span record per line, parent-linked.
* ``metrics.json`` -- the final :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot.

The sink is append-per-line with an explicit flush per event batch, so
a crashed run still leaves a readable prefix.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys

from typing import Iterable, Optional

#: Bump when the span/metrics/manifest record layout changes meaning.
OBS_SCHEMA_VERSION = 1

SPANS_FILENAME = "spans.jsonl"
METRICS_FILENAME = "metrics.json"
MANIFEST_FILENAME = "manifest.json"
TIMESERIES_FILENAME = "timeseries.jsonl"


class JsonlSink:
    """Append-only JSON-lines writer with an event counter."""

    def __init__(self, path: str):
        self.path = path
        self.events = 0
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._file = open(path, "a")

    def emit(self, record: dict) -> None:
        self._file.write(json.dumps(record, sort_keys=True))
        self._file.write("\n")
        self.events += 1

    def emit_many(self, records: Iterable[dict]) -> int:
        n = 0
        for record in records:
            self.emit(record)
            n += 1
        self._file.flush()
        return n

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_jsonl(path: str) -> list:
    """Load a JSONL file, skipping a trailing partial line if present."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                break  # torn tail of a crashed run
    return records


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-able configuration dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def run_manifest(
    settings=None, argv: Optional[list] = None, extra: Optional[dict] = None
) -> dict:
    """Everything needed to say *what produced these numbers*.

    ``settings`` is a :class:`~repro.bench.config.BenchSettings` (or any
    object with ``__dict__``); the manifest embeds both the raw values
    and their content hash so two result directories can be compared at
    a glance.
    """
    manifest = {
        "schema": OBS_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": list(sys.argv) if argv is None else list(argv),
    }
    try:
        import numpy

        manifest["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        manifest["numpy"] = None
    if settings is not None:
        config = {
            k: v for k, v in vars(settings).items() if not k.startswith("_")
        }
        manifest["settings"] = config
        manifest["config_hash"] = config_hash(config)
        manifest["seed"] = config.get("seed")
    if extra:
        manifest.update(extra)
    return manifest


def write_run(
    obs_dir: str,
    spans: Optional[list] = None,
    metrics_snapshot: Optional[dict] = None,
    manifest: Optional[dict] = None,
    timeseries: Optional[list] = None,
) -> dict:
    """Write the run artifacts into ``obs_dir``; returns their paths.

    ``timeseries`` is a list of labelled serving-telemetry records
    (``{"label", "content_key", "series"}``, see
    :func:`repro.serve.telemetry.publish`) written as
    ``timeseries.jsonl`` -- the stream ``python -m repro.obs timeline``
    renders.

    Each file written is truncated first, so reusing ``obs_dir`` leaves
    one run's records, never a mix (streaming callers that want append
    semantics use :class:`JsonlSink` directly).
    """
    os.makedirs(obs_dir, exist_ok=True)
    paths = {}
    for key, filename, payload, jsonl in (
        ("manifest", MANIFEST_FILENAME, manifest, False),
        ("spans", SPANS_FILENAME, spans, True),
        ("metrics", METRICS_FILENAME, metrics_snapshot, False),
        ("timeseries", TIMESERIES_FILENAME, timeseries, True),
    ):
        if payload is None:
            continue
        path = os.path.join(obs_dir, filename)
        with open(path, "w") as f:
            if jsonl:
                for record in payload:
                    f.write(json.dumps(record, sort_keys=True))
                    f.write("\n")
            else:
                json.dump(payload, f, indent=2, sort_keys=True)
                f.write("\n")
        paths[key] = path
    return paths
