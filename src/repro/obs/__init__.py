"""Observability layer: spans, metrics, run sinks, lookup-phase profiles.

The harness, parallel runner, memsim engines and serving simulator all
report here; see ``docs/observability.md`` for the span API, metric
naming conventions, manifest schema and how to read a phase breakdown.

Off by default.  Two switches:

* ``REPRO_OBS=1`` (or :func:`repro.obs.spans.enable`) -- record spans;
  pool workers inherit it through the environment.
* ``--obs-dir DIR`` -- write ``manifest.json`` / ``spans.jsonl`` /
  ``metrics.json`` next to a run's results (implies ``REPRO_OBS=1``).

Per-phase counter attribution inside measured lookups (CLI
``--profile``) is not process-wide: each measurement cell carries it in
its ``profile`` field, and ``measure(profile=True)`` asks for it.

With every switch off, the instrumentation left in hot paths is a no-op
``Tracer.phase`` call and a truthiness test per coarse region; the
overhead-guard benchmark (``benchmarks/test_bench_obs.py``) holds that
to <2% of a representative fig7 cell.
"""

from repro.obs import metrics, sink, spans
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.phase import (
    PHASE_MODEL,
    PHASE_ORDER,
    PHASE_OTHER,
    PHASE_SEARCH,
    PhaseTracer,
    phase_window,
)
from repro.obs.sink import JsonlSink, run_manifest, write_run
from repro.obs.spans import capture, drain, enable, enabled, inject, span

__all__ = [
    "metrics",
    "sink",
    "spans",
    "MetricsRegistry",
    "get_registry",
    "PHASE_MODEL",
    "PHASE_ORDER",
    "PHASE_OTHER",
    "PHASE_SEARCH",
    "PhaseTracer",
    "phase_window",
    "JsonlSink",
    "run_manifest",
    "write_run",
    "capture",
    "drain",
    "enable",
    "enabled",
    "inject",
    "span",
]
