"""Batched measure path: trace-plan replay + model kernels, wall clock.

Distils the batched path's speedups into ``BENCH_vector.json`` so CI
can track the perf trajectory:

* ``cell_*`` — the representative fig7 measurement cell (RMI/amzn,
  1000 lookups + 500 warmup), timed as a product cell pays for it: one
  ``measure`` of a freshly built index (the build is outside the
  timer).  The per-lookup loop (``measure`` passed a ``FastEngine``,
  keys ``cell_fast_*``), and ``measure``'s own choice for this cell,
  the batched path (kernel-synthesized streams replayed from compiled
  plans on the same engine, keys ``cell_vector_*``).
  ``cell_vector_speedup`` is the headline batched-vs-loop number.
* ``kernel_*`` — batch-predict kernels in keys/second: RMI, PGM and RS
  ``batch_bounds`` over a large sorted probe batch versus the scalar
  ``index.lookup`` loop on the same keys.

Set ``BENCH_VECTOR_JSON`` to redirect the output path (defaults to the
repo root).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.bench.harness import build_index, measure
from repro.datasets import make_dataset, make_workload
from repro.learned import kernels
from repro.memsim import FastEngine
from repro.memsim.tracer import NULL_TRACER

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Filled by the benchmarks below, written out once the module finishes.
_RATES = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_vector_json():
    yield
    if not _RATES:  # e.g. --benchmark-disable: no stats to record
        return
    r = _RATES
    if "cell_vector_cells_per_sec" in r and "cell_fast_cells_per_sec" in r:
        r["cell_vector_speedup"] = (
            r["cell_vector_cells_per_sec"] / r["cell_fast_cells_per_sec"]
        )
    for name in ("rmi", "pgm", "rs"):
        batch = r.get(f"kernel_{name}_keys_per_sec")
        scalar = r.get(f"kernel_{name}_scalar_keys_per_sec")
        if batch and scalar:
            r[f"kernel_{name}_speedup"] = batch / scalar
    path = os.environ.get("BENCH_VECTOR_JSON") or os.path.join(
        REPO_ROOT, "BENCH_vector.json"
    )
    with open(path, "w") as f:
        json.dump(_RATES, f, indent=2, sort_keys=True)
        f.write("\n")


# --------------------------------------------------------------------
# Representative fig7 cell, end to end.
# --------------------------------------------------------------------

_CELL_KW = dict(n_lookups=1_000, warmup=500)
#: Timed ``measure`` calls per case; each gets its own untimed build.
_CELL_ROUNDS = 15


@pytest.fixture(scope="module")
def cell_inputs():
    ds = make_dataset("amzn", 50_000, seed=7)
    wl = make_workload(ds, 1_000, seed=8)
    return ds, wl


@pytest.mark.parametrize(
    "engine,key",
    [
        (FastEngine, "cell_fast_cells_per_sec"),
        (None, "cell_vector_cells_per_sec"),
    ],
    ids=["fast", "vector"],
)
def test_cell_steady_state(benchmark, cell_inputs, engine, key):
    """One RMI/amzn fig7 cell's ``measure``, each round on a fresh build."""
    ds, wl = cell_inputs

    def fresh_build():
        built = build_index(ds, "RMI", {"branching": 1024})
        return (built, wl), dict(engine=engine, **_CELL_KW)

    args, kwargs = fresh_build()
    m0 = measure(*args, **kwargs)
    m = benchmark.pedantic(measure, setup=fresh_build, rounds=_CELL_ROUNDS)
    assert m.counters == m0.counters  # every fresh cell is byte-stable
    if benchmark.stats is not None:
        _RATES[key] = 1.0 / benchmark.stats.stats.mean


# --------------------------------------------------------------------
# Batch-predict kernels vs the scalar model phase.
# --------------------------------------------------------------------

_KERNEL_CONFIGS = [
    ("rmi", "RMI", {"branching": 1024}),
    ("pgm", "PGM", {"epsilon": 64}),
    ("rs", "RS", {"epsilon": 32, "radix_bits": 14}),
]

_N_PROBES = 50_000


@pytest.fixture(scope="module")
def kernel_inputs():
    ds = make_dataset("amzn", 100_000, seed=7)
    rng = np.random.default_rng(9)
    probes = rng.choice(ds.keys, _N_PROBES).astype(np.uint64)
    probes[::7] += 1  # absent keys in the mix
    return ds, np.sort(probes)


@pytest.mark.parametrize(
    "name,index_name,config", _KERNEL_CONFIGS, ids=[c[0] for c in _KERNEL_CONFIGS]
)
def test_kernel_batch_bounds(benchmark, kernel_inputs, name, index_name, config):
    ds, probes = kernel_inputs
    built = build_index(ds, index_name, config)
    lo, hi = benchmark(kernels.batch_bounds, built.index, probes)
    assert len(lo) == len(probes) and (lo <= hi).all()
    if benchmark.stats is not None:
        _RATES[f"kernel_{name}_keys_per_sec"] = (
            len(probes) / benchmark.stats.stats.mean
        )


@pytest.mark.parametrize(
    "name,index_name,config", _KERNEL_CONFIGS, ids=[c[0] for c in _KERNEL_CONFIGS]
)
def test_kernel_scalar_baseline(benchmark, kernel_inputs, name, index_name, config):
    ds, probes = kernel_inputs
    built = build_index(ds, index_name, config)
    index = built.index
    keys = probes.tolist()[: _N_PROBES // 10]  # scalar is slow; scale rate

    def scalar_loop():
        lookup = index.lookup
        for k in keys:
            lookup(k, NULL_TRACER)

    benchmark(scalar_loop)
    if benchmark.stats is not None:
        _RATES[f"kernel_{name}_scalar_keys_per_sec"] = (
            len(keys) / benchmark.stats.stats.mean
        )
