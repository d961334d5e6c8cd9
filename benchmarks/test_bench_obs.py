"""Observability companion: the cost of instrumentation, on and off.

Distils the overhead story into ``BENCH_obs.json`` so CI can hold the
PR 4 promise — *observability off by default is (near) free*:

* ``phase_marker_*`` — the calibrated overhead guard.  With profiling
  disabled every ``tracer.phase(name)`` in an index's lookup path hits
  the inherited no-op on :class:`~repro.memsim.tracer.Tracer`.  We
  count how many such calls one representative fig7-style cell makes,
  benchmark the no-op itself, benchmark the cell, and assert the
  estimated marker share of cell wall time stays under 2%.  The cell
  runs the per-lookup loop on the fast engine, the path whose lookups
  execute the markers (``measure`` would take the batched path for
  RMI, which runs no index code and so no markers at all).
* ``profile_on_*`` — informational: the same cell with ``profile=True``
  (PhaseTracer attribution + replay disabled), as a slowdown factor.
* ``sink_*`` — ``JsonlSink`` span-record throughput.
* ``serve_telemetry_*`` — the serving-telemetry analogue of the marker
  guard (PR 9): with telemetry off, each simulated request pays exactly
  two ``is not None`` checks in the event loop (dispatch + finish); we
  benchmark the check, a representative open-loop run, and assert the
  estimated share stays under 2%.  The telemetry-on run is recorded as
  an informational slowdown factor.

Set ``BENCH_OBS_JSON`` to redirect the output path (defaults to the
repo root).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import build_index, measure
from repro.datasets import make_dataset, make_workload
from repro.memsim import FastEngine
from repro.memsim.tracer import PerfTracer, Tracer

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The guard: no-op phase markers may cost at most this share of a cell.
MAX_MARKER_SHARE = 0.02

#: Filled by the benchmarks below, written out once the module finishes.
_RATES = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_obs_json():
    yield
    if not _RATES:  # e.g. --benchmark-disable: no stats to record
        return
    r = _RATES
    if (
        "phase_marker_calls_per_cell" in r
        and "phase_marker_noop_ns" in r
        and "cell_plain_seconds" in r
    ):
        r["phase_marker_share_of_cell"] = (
            r["phase_marker_calls_per_cell"]
            * r["phase_marker_noop_ns"]
            * 1e-9
            / r["cell_plain_seconds"]
        )
    if "cell_plain_seconds" in r and "cell_profiled_seconds" in r:
        r["profile_on_slowdown"] = (
            r["cell_profiled_seconds"] / r["cell_plain_seconds"]
        )
    if (
        "serve_telemetry_checks_per_request" in r
        and "serve_telemetry_noop_ns" in r
        and "serve_sim_plain_seconds" in r
    ):
        r["serve_telemetry_off_share"] = (
            _SIM_N_REQUESTS
            * r["serve_telemetry_checks_per_request"]
            * r["serve_telemetry_noop_ns"]
            * 1e-9
            / r["serve_sim_plain_seconds"]
        )
    if (
        "serve_sim_plain_seconds" in r
        and "serve_sim_telemetry_seconds" in r
    ):
        r["serve_telemetry_on_slowdown"] = (
            r["serve_sim_telemetry_seconds"] / r["serve_sim_plain_seconds"]
        )
    path = os.environ.get("BENCH_OBS_JSON") or os.path.join(
        REPO_ROOT, "BENCH_obs.json"
    )
    with open(path, "w") as f:
        json.dump(_RATES, f, indent=2, sort_keys=True)
        f.write("\n")


# --------------------------------------------------------------------
# The representative cell every number below is relative to.
# --------------------------------------------------------------------

_CELL_KW = dict(n_lookups=800, warmup=300, replay=False, engine=FastEngine)


@pytest.fixture(scope="module")
def cell_inputs():
    ds = make_dataset("amzn", 30_000, seed=7)
    wl = make_workload(ds, 800, seed=8)
    return ds, wl


class _PhaseCountingTracer(PerfTracer):
    """PerfTracer that counts phase-marker calls instead of ignoring them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.phase_calls = 0

    def phase(self, name):
        self.phase_calls += 1


def _count_phase_calls(ds, wl):
    """How many no-op ``tracer.phase`` calls one cell's lookups make."""
    from repro.search.last_mile import SEARCH_FUNCTIONS

    built = build_index(ds, "RMI", {"branching": 1024})
    tracer = _PhaseCountingTracer()
    search_fn = SEARCH_FUNCTIONS["binary"]
    keys = wl.keys.tolist()[: _CELL_KW["n_lookups"]]
    for key in keys:
        bound = built.index.lookup(key, tracer)
        search_fn(built.data, key, bound, tracer)
    # warmup + measured loop both pay the markers.
    per_lookup = tracer.phase_calls / len(keys)
    return per_lookup * (_CELL_KW["n_lookups"] + _CELL_KW["warmup"])


def test_phase_marker_noop(benchmark):
    """Cost of one inherited no-op ``Tracer.phase`` call."""
    tracer = PerfTracer()  # stock tracer: phase() is the base-class no-op
    assert type(tracer).phase is Tracer.phase
    phase = tracer.phase
    n = 10_000

    def loop():
        for _ in range(n):
            phase("model")

    benchmark(loop)
    if benchmark.stats is not None:
        _RATES["phase_marker_noop_ns"] = benchmark.stats.stats.mean / n * 1e9


def test_cell_plain(benchmark, cell_inputs):
    """The baseline cell, observability fully off."""
    ds, wl = cell_inputs
    built = build_index(ds, "RMI", {"branching": 1024})
    m = benchmark(measure, built, wl, profile=False, **_CELL_KW)
    assert m.latency_ns > 0
    if benchmark.stats is not None:
        _RATES["cell_plain_seconds"] = benchmark.stats.stats.mean
        _RATES["phase_marker_calls_per_cell"] = _count_phase_calls(ds, wl)


def test_cell_profiled(benchmark, cell_inputs):
    """Informational: the same cell with phase attribution on."""
    ds, wl = cell_inputs
    built = build_index(ds, "RMI", {"branching": 1024})
    m = benchmark(measure, built, wl, profile=True, **_CELL_KW)
    assert m.phases is not None
    if benchmark.stats is not None:
        _RATES["cell_profiled_seconds"] = benchmark.stats.stats.mean


def test_overhead_guard():
    """The 2% promise: no-op markers are noise on a cell's wall time.

    Runs after the two benches above (pytest collection order); skips
    under ``--benchmark-disable`` where no timings were collected.
    """
    needed = (
        "phase_marker_calls_per_cell",
        "phase_marker_noop_ns",
        "cell_plain_seconds",
    )
    if not all(k in _RATES for k in needed):
        pytest.skip("benchmarks disabled; no timings to guard")
    share = (
        _RATES["phase_marker_calls_per_cell"]
        * _RATES["phase_marker_noop_ns"]
        * 1e-9
        / _RATES["cell_plain_seconds"]
    )
    _RATES["phase_marker_share_of_cell"] = share
    assert share < MAX_MARKER_SHARE, (
        f"no-op phase markers cost {share:.2%} of a representative cell "
        f"(limit {MAX_MARKER_SHARE:.0%})"
    )


# --------------------------------------------------------------------
# Span sink throughput.
# --------------------------------------------------------------------


def _num_telemetry_checks():
    """``is not None`` checks per request with telemetry disabled.

    Pinned by inspection of :mod:`repro.serve.core`: one in
    ``_EventLoop.dispatch`` (queue-depth sampling) and one in
    ``_EventLoop.finish`` (completion accounting); the nested traces
    check only runs when a collector is attached.
    """
    import inspect

    from repro.serve.core import _EventLoop

    dispatch_src = inspect.getsource(_EventLoop.dispatch)
    finish_src = inspect.getsource(_EventLoop.finish)
    return dispatch_src.count("telemetry is not None") + finish_src.count(
        "telemetry is not None"
    )


#: Requests per serving-simulation benchmark run.
_SIM_N_REQUESTS = 2_000


def _sim_inputs():
    from repro.memsim.counters import PerfCountersF
    from repro.serve.arrivals import poisson_arrivals
    from repro.serve.core import ServiceModel

    service = ServiceModel(
        PerfCountersF(
            instructions=300, branch_misses=3.0, llc_misses=2.0, l1_hits=20.0
        )
    )
    arrivals = poisson_arrivals(2e6, _SIM_N_REQUESTS, seed=5)
    return service, arrivals


def test_serve_telemetry_check_noop(benchmark):
    """Cost of one disabled-telemetry ``is not None`` check."""

    class Holder:
        telemetry = None

    holder = Holder()
    n = 10_000

    def loop():
        hits = 0
        for _ in range(n):
            if holder.telemetry is not None:
                hits += 1  # pragma: no cover - telemetry is None
        return hits

    assert benchmark(loop) == 0
    if benchmark.stats is not None:
        _RATES["serve_telemetry_noop_ns"] = (
            benchmark.stats.stats.mean / n * 1e9
        )
        _RATES["serve_telemetry_checks_per_request"] = (
            _num_telemetry_checks()
        )


def test_serve_sim_plain(benchmark):
    """Baseline open-loop serving run, telemetry off."""
    from repro.serve.core import simulate_open_loop

    service, arrivals = _sim_inputs()
    result = benchmark(
        simulate_open_loop, service, arrivals, 2
    )
    assert len(result.requests) == _SIM_N_REQUESTS
    assert result.telemetry is None
    if benchmark.stats is not None:
        _RATES["serve_sim_plain_seconds"] = benchmark.stats.stats.mean


def test_serve_sim_telemetry_on(benchmark):
    """Informational: the same run with windowed telemetry attached."""
    from repro.serve.core import simulate_open_loop
    from repro.serve.telemetry import TelemetryConfig

    service, arrivals = _sim_inputs()
    cfg = TelemetryConfig(window_ns=float(arrivals[-1]) / 12.0)
    result = benchmark(
        simulate_open_loop, service, arrivals, 2, telemetry=cfg,
    )
    assert result.telemetry is not None
    if benchmark.stats is not None:
        _RATES["serve_sim_telemetry_seconds"] = benchmark.stats.stats.mean


def test_serve_telemetry_overhead_guard():
    """The 2% promise for serving telemetry when disabled.

    Same shape as :func:`test_overhead_guard`: estimated cost of the
    per-request no-op checks as a share of the baseline run.
    """
    needed = (
        "serve_telemetry_checks_per_request",
        "serve_telemetry_noop_ns",
        "serve_sim_plain_seconds",
    )
    if not all(k in _RATES for k in needed):
        pytest.skip("benchmarks disabled; no timings to guard")
    assert _RATES["serve_telemetry_checks_per_request"] == 2
    share = (
        _SIM_N_REQUESTS
        * _RATES["serve_telemetry_checks_per_request"]
        * _RATES["serve_telemetry_noop_ns"]
        * 1e-9
        / _RATES["serve_sim_plain_seconds"]
    )
    _RATES["serve_telemetry_off_share"] = share
    assert share < MAX_MARKER_SHARE, (
        f"disabled serving telemetry costs {share:.2%} of a "
        f"representative run (limit {MAX_MARKER_SHARE:.0%})"
    )


def test_sink_throughput(benchmark, tmp_path):
    """JsonlSink records/second on realistic span dicts."""
    from repro.obs.sink import JsonlSink

    records = [
        {
            "sid": f"1234:{i}",
            "parent": f"1234:{i - 1}" if i else None,
            "name": "cell",
            "path": "cell",
            "pid": 1234,
            "start_ns": i * 1000,
            "wall_ns": 12_345,
            "status": "ok",
            "attrs": {"label": "RMI/amzn(branching=1024)", "cache_hit": False},
        }
        for i in range(2_000)
    ]
    path = tmp_path / "spans.jsonl"

    def write_all():
        with JsonlSink(str(path)) as sink:
            return sink.emit_many(records)

    n = benchmark(write_all)
    assert n == len(records)
    if benchmark.stats is not None:
        _RATES["sink_records_per_sec"] = len(records) / benchmark.stats.stats.mean
