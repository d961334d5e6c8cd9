"""Replay-aware measurement: same numbers, less index Python.

``measure(..., replay=True)`` must be a pure optimization of the
per-lookup loop -- every Measurement field identical to direct
execution, on the fast engine and the reference oracle, warm or cold,
even when the trace store's budget forces a partial fallback.  The
index is a B-Tree, which has no batch kernel, so ``measure`` runs the
per-lookup loop where replay applies.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.harness import build_index, measure, measure_repeated
from repro.datasets import make_dataset, make_workload
from repro.memsim import FastEngine, ReferenceEngine, TraceStore


@pytest.fixture(scope="module")
def setup():
    ds = make_dataset("amzn", 4_000, seed=61)
    wl = make_workload(ds, 900, seed=62)
    return ds, wl


def fresh_built(ds):
    return build_index(ds, "BTree", {"gap": 4, "fanout": 16})


def assert_same_measurement(a, b):
    """Field-wise equality, ignoring build wall-clock."""
    for f in dataclasses.fields(a):
        if f.name == "build_seconds":
            continue
        assert getattr(a, f.name) == getattr(b, f.name), f.name


KW = dict(n_lookups=200, warmup=100)


class TestReplayIdentity:
    def test_replay_matches_direct_execution(self, setup):
        ds, wl = setup
        direct = measure(fresh_built(ds), wl, **KW)
        replayed = measure(fresh_built(ds), wl, replay=True, **KW)
        assert_same_measurement(direct, replayed)

    def test_second_pass_is_pure_replay_and_identical(self, setup):
        ds, wl = setup
        built = fresh_built(ds)
        first = measure(built, wl, replay=True, **KW)
        hits_before = built.traces.hits
        second = measure(built, wl, replay=True, **KW)
        assert_same_measurement(first, second)
        # Every lookup of the second pass came from the store.
        assert built.traces.hits - hits_before == KW["n_lookups"] + KW["warmup"]

    @pytest.mark.parametrize(
        "engine", [ReferenceEngine, FastEngine], ids=["reference", "fast"]
    )
    def test_engines_agree_under_replay(self, setup, engine):
        ds, wl = setup
        direct = measure(fresh_built(ds), wl, engine=ReferenceEngine, **KW)
        m = measure(fresh_built(ds), wl, engine=engine, replay=True, **KW)
        assert_same_measurement(direct, m)

    def test_cold_cache_replay_matches(self, setup):
        """fig14-style: flush before every measured lookup, replay on."""
        ds, wl = setup
        direct = measure(fresh_built(ds), wl, warm=False, **KW)
        replayed = measure(fresh_built(ds), wl, warm=False, replay=True, **KW)
        assert_same_measurement(direct, replayed)

    def test_budget_exhaustion_falls_back_to_execution(self, setup):
        ds, wl = setup
        built = fresh_built(ds)
        built.traces = TraceStore(max_events=200)  # a handful of lookups
        m = measure(built, wl, replay=True, **KW)
        assert built.traces.events <= 200
        direct = measure(fresh_built(ds), wl, **KW)
        assert_same_measurement(direct, m)

    def test_mutating_lookups_disable_trace_reuse(self, setup):
        ds, wl = setup
        built = fresh_built(ds)
        built.index.mutating_lookups = True
        m = measure(built, wl, replay=True, **KW)
        assert built.traces is None
        assert_same_measurement(measure(fresh_built(ds), wl, **KW), m)


class TestMeasureRepeatedReplay:
    def test_replay_default_equals_replay_off(self, setup):
        ds, wl = setup
        kw = dict(n_chunks=3, chunk_lookups=120, warmup=60)
        on = measure_repeated(fresh_built(ds), wl, **kw)
        off = measure_repeated(fresh_built(ds), wl, replay=False, **kw)
        assert on.chunk_latencies_ns == off.chunk_latencies_ns
        assert_same_measurement(on.measurement, off.measurement)

    def test_chunks_share_one_trace_store(self, setup):
        ds, wl = setup
        built = fresh_built(ds)
        measure_repeated(built, wl, n_chunks=3, chunk_lookups=120, warmup=60)
        assert built.traces is not None
        # Chunk i re-runs chunks 0..i-1 as warmup: most lookups replay.
        assert built.traces.hits > built.traces.misses
