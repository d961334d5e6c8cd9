"""Memsim companion: wall-clock speed of the simulated CPU.

Distils the engine speedups into ``BENCH_memsim.json`` so CI can track
the perf trajectory.  The reference engine, the oracle tests hold the
others to, is built directly as an object:

* ``hot_*`` — the memsim access microbenchmark: a sequential 8-byte
  scan of an L1-resident 16 KiB buffer (7 of 8 accesses re-touch the
  line the previous access left MRU), driven per-call through each
  engine; ``hot_percall_speedup`` is fast over reference.
  ``hot_trace_compression`` is how many scan reads one event of the
  recorded trace stands for (the recorder's ``K_REPEAT`` runs).
* ``mixed_*`` — replay of a real recorded RMI lookup stream (reads,
  branches and instr events in their natural proportions), in raw
  events/second on the reference engine.
* ``cell_*`` — a representative fig7-style measurement cell end to
  end, timed as a product cell pays for it: one ``measure`` of a
  freshly built index (the build is outside the timer), on the product
  path (the batched path for this RMI cell) and on the reference
  oracle's per-lookup loop, which ``cell_speedup`` is measured against.
  ``cell_cold_product_cells_per_sec`` is the product path with cold
  caches (fig14): it flushes the caches and TLB before every lookup.

Set ``BENCH_MEMSIM_JSON`` to redirect the output path (defaults to the
repo root).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import build_index, measure
from repro.datasets import make_dataset, make_workload
from repro.memsim import (
    FastEngine,
    PerfTracer,
    ReferenceEngine,
    SiteInterner,
    TraceRecorder,
    Tracer,
)
from repro.search.last_mile import SEARCH_FUNCTIONS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Filled by the benchmarks below, written out once the module finishes.
_RATES = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_memsim_json():
    yield
    if not _RATES:  # e.g. --benchmark-disable: no stats to record
        return
    r = _RATES
    if (
        "hot_ref_percall_ns_per_access" in r
        and "hot_fast_percall_ns_per_access" in r
    ):
        r["hot_percall_speedup"] = (
            r["hot_ref_percall_ns_per_access"]
            / r["hot_fast_percall_ns_per_access"]
        )
    hot_trace = _drive_percall(TraceRecorder()).finish()
    r["hot_trace_compression"] = len(_HOT_ADDRS) / len(hot_trace)
    if (
        "cell_ref_direct_cells_per_sec" in r
        and "cell_product_cells_per_sec" in r
    ):
        r["cell_speedup"] = (
            r["cell_product_cells_per_sec"]
            / r["cell_ref_direct_cells_per_sec"]
        )
    path = os.environ.get("BENCH_MEMSIM_JSON") or os.path.join(
        REPO_ROOT, "BENCH_memsim.json"
    )
    with open(path, "w") as f:
        json.dump(_RATES, f, indent=2, sort_keys=True)
        f.write("\n")


# --------------------------------------------------------------------
# The access microbenchmark: sequential scan of an L1-resident buffer.
# --------------------------------------------------------------------

#: 16 KiB scanned in 8-byte strides, four passes: fits L1, maximizes
#: the same-line locality every warm lookup loop exhibits.
_HOT_ADDRS = [
    base + off
    for _ in range(4)
    for base in range(0, 16_384, 4_096)
    for off in range(0, 4_096, 8)
]


def _drive_percall(tracer):
    read = tracer.read
    for a in _HOT_ADDRS:
        read(a, 8)
    return tracer


#: The two per-event engines, keyed by their rate-name prefix.
ENGINES = {"ref": ReferenceEngine, "fast": FastEngine}


@pytest.mark.parametrize("engine", ENGINES)
def test_hot_access_percall(benchmark, engine):
    tracer = PerfTracer(engine=ENGINES[engine]())
    benchmark(_drive_percall, tracer)
    assert tracer.counters.reads > 0
    if benchmark.stats is not None:
        ns = benchmark.stats.stats.mean / len(_HOT_ADDRS) * 1e9
        _RATES[f"hot_{engine}_percall_ns_per_access"] = ns


# --------------------------------------------------------------------
# Replay of a real mixed lookup stream (reads + branches + instr).
# --------------------------------------------------------------------


class _CountingTee(Tracer):
    """Forwarding tracer that counts raw (uncompressed) events (phase
    markers are not events: the inherited no-op drops them)."""

    def __init__(self, inner):
        self.inner = inner
        self.n = 0

    def read(self, addr, size=8):
        self.n += 1
        self.inner.read(addr, size)

    def instr(self, n=1):
        self.n += 1
        self.inner.instr(n)

    def branch(self, site, taken):
        self.n += 1
        self.inner.branch(site, taken)


@pytest.fixture(scope="module")
def mixed_trace(amzn, workload):
    built = build_index(amzn, "RMI", {"branching": 1024})
    index, data = built.index, built.data
    search_fn = SEARCH_FUNCTIONS["binary"]
    sites = SiteInterner()
    tee = _CountingTee(TraceRecorder(sites=sites))
    for key in workload.keys.tolist():
        bound = index.lookup(key, tee)
        search_fn(data, key, bound, tee)
    return tee.inner.finish(), sites, tee.n


def test_mixed_trace_replay(benchmark, mixed_trace):
    trace, sites, n_raw = mixed_trace
    tracer = PerfTracer(engine=ReferenceEngine(sites=sites))
    benchmark(tracer.replay, trace)
    if benchmark.stats is not None:
        rate = n_raw / benchmark.stats.stats.mean
        _RATES["mixed_ref_replay_events_per_sec"] = rate


# --------------------------------------------------------------------
# Representative fig7 cell, end to end.
# --------------------------------------------------------------------

_CELL_KW = dict(n_lookups=1_000, warmup=500)
#: Timed ``measure`` calls per case; each gets its own untimed build.
_CELL_ROUNDS = 8


@pytest.fixture(scope="module")
def cell_inputs():
    ds = make_dataset("amzn", 50_000, seed=7)
    wl = make_workload(ds, 1_000, seed=8)
    return ds, wl


#: id -> measure's (engine, warm) arguments: engine None is the
#: product path.
_CELL_CASES = {
    "ref_direct": (ReferenceEngine, True),
    "product": (None, True),
    "cold_product": (None, False),
}


@pytest.mark.parametrize("case", _CELL_CASES)
def test_cell_steady_state(benchmark, cell_inputs, case):
    """One RMI/amzn cell's ``measure``, each round on a fresh build."""
    engine, warm = _CELL_CASES[case]
    ds, wl = cell_inputs

    def fresh_build():
        built = build_index(ds, "RMI", {"branching": 1024})
        return (built, wl), dict(engine=engine, warm=warm, **_CELL_KW)

    m = benchmark.pedantic(measure, setup=fresh_build, rounds=_CELL_ROUNDS)
    assert m.latency_ns > 0
    if benchmark.stats is not None:
        _RATES[f"cell_{case}_cells_per_sec"] = 1.0 / benchmark.stats.stats.mean
