"""Phase attribution: per-phase counters sum byte-exactly to totals.

The load-bearing invariant: wrapping the harness tracer in a
:class:`~repro.obs.phase.PhaseTracer` never changes any counter, and the
integer per-phase totals telescope to exactly the unphased totals -- on
the product path and on the reference engine oracle, for every
instrumented index.  Golden measurements therefore stay byte-identical
under ``--profile``.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_index, measure
from repro.datasets.loader import make_dataset
from repro.datasets.workload import make_workload
from repro.memsim.counters import PerfCounters
from repro.memsim.engine import ReferenceEngine
from repro.memsim.tracer import PerfTracer
from repro.obs.phase import (
    PHASE_ORDER,
    PhaseTracer,
    phase_window,
    profiling_enabled,
    set_profiling,
)

INDEXES = ("RMI", "PGM", "RS", "BTree", "IBTree")

#: ``measure``'s ``engine`` argument: the product path (whose profiled
#: per-lookup loop runs the fast engine) and the reference oracle.
ENGINES = {"reference": ReferenceEngine, "fast": None}


def phase_sum(phases) -> PerfCounters:
    total = PerfCounters()
    for c in phases.values():
        total = total + c
    return total


class TestPhaseTracer:
    def test_hot_methods_are_engine_bound(self):
        inner = PerfTracer()
        t = PhaseTracer(inner)
        assert t.read is inner.read
        assert t.instr is inner.instr
        assert t.branch is inner.branch

    def test_attribution_by_transition(self):
        t = PhaseTracer(PerfTracer())
        t.instr(5)  # before any marker -> "other"
        t.phase("model")
        t.instr(3)
        t.phase("model")  # same-phase marker is a cheap no-op
        t.instr(4)
        t.phase("search")
        t.instr(10)
        totals = t.checkpoint()
        assert totals["other"].instructions == 5
        assert totals["model"].instructions == 7
        assert totals["search"].instructions == 10

    def test_checkpoint_telescopes_to_snapshot(self):
        t = PhaseTracer(PerfTracer())
        base = t.snapshot()
        for i in range(50):
            t.phase(PHASE_ORDER[i % 3])
            t.instr(i)
            t.read(i * 64)
        assert phase_sum(t.checkpoint()) == t.snapshot() - base

    def test_phase_window_subtracts_and_drops_zero(self):
        t = PhaseTracer(PerfTracer())
        t.phase("model")
        t.instr(2)
        first = t.checkpoint()
        t.phase("search")
        t.instr(9)
        window = phase_window(t.checkpoint(), first)
        assert set(window) == {"search"}  # model did not move
        assert window["search"].instructions == 9

    def test_ambient_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_PROFILE", raising=False)
        assert not profiling_enabled()
        set_profiling(True)
        assert profiling_enabled()
        set_profiling(False)
        assert not profiling_enabled()


class TestMeasureProfiled:
    """Harness-level invariants, exhaustively over paths x indexes."""

    @pytest.fixture(scope="class")
    def setup(self):
        ds = make_dataset("amzn", 4_000, seed=5)
        wl = make_workload(ds, 300, seed=9)
        return ds, wl

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("index", INDEXES)
    def test_phases_sum_to_totals_and_counters_unchanged(
        self, setup, engine, index
    ):
        ds, wl = setup
        engine = ENGINES[engine]
        plain = measure(
            build_index(ds, index),
            wl,
            n_lookups=200,
            warmup=60,
            engine=engine,
            profile=False,
        )
        profiled = measure(
            build_index(ds, index),
            wl,
            n_lookups=200,
            warmup=60,
            engine=engine,
            profile=True,
        )
        assert plain.phases is None
        assert profiled.phases is not None
        # Profiling changes nothing.
        assert profiled.counters == plain.counters
        assert profiled.latency_ns == plain.latency_ns
        # Integer phase totals sum byte-exactly to the measured window.
        assert (
            phase_sum(profiled.phases).per_lookup(profiled.n_lookups)
            == plain.counters
        )
        # Instrumented indexes refine both canonical phases.
        assert "model" in profiled.phases
        assert "search" in profiled.phases

    @given(
        index=st.sampled_from(INDEXES),
        engine=st.sampled_from(list(ENGINES.values())),
        seed=st.integers(0, 3),
        search=st.sampled_from(["binary", "linear", "exponential"]),
        warm=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_phase_sums_exact_under_any_configuration(
        self, index, engine, seed, search, warm
    ):
        ds = make_dataset("osm", 2_000, seed=seed)
        wl = make_workload(ds, 150, seed=seed + 1)
        kwargs = dict(
            n_lookups=100, warmup=40, search=search, warm=warm, engine=engine
        )
        plain = measure(build_index(ds, index), wl, profile=False, **kwargs)
        profiled = measure(build_index(ds, index), wl, profile=True, **kwargs)
        assert profiled.counters == plain.counters
        assert (
            phase_sum(profiled.phases).per_lookup(profiled.n_lookups)
            == plain.counters
        )

    def test_both_engines_attribute_identically(self, setup):
        ds, wl = setup
        for index in INDEXES:
            ref = measure(
                build_index(ds, index),
                wl,
                n_lookups=150,
                warmup=40,
                engine=ReferenceEngine,
                profile=True,
            )
            fast = measure(
                build_index(ds, index),
                wl,
                n_lookups=150,
                warmup=40,
                profile=True,
            )
            assert ref.phases == fast.phases, index

    def test_profile_disables_replay_but_not_counters(self, setup):
        ds, wl = setup
        built = build_index(ds, "BTree")
        profiled = measure(
            built, wl, n_lookups=150, warmup=40, replay=True, profile=True
        )
        assert built.traces is None  # replay skipped under profiling
        replayed = measure(
            built, wl, n_lookups=150, warmup=40, replay=True, profile=False
        )
        assert built.traces is not None
        assert profiled.counters == replayed.counters


class TestGoldenPhases:
    """Profiling the golden cells leaves their counters byte-identical."""

    GOLDEN_PATH = os.path.join(
        os.path.dirname(__file__), "data", "golden_measurements.json"
    )

    def test_profiled_golden_cells_match_recorded_counters(self):
        from repro.bench.cells import MeasureCell, freeze_config

        with open(self.GOLDEN_PATH) as f:
            golden = json.load(f)
        for record in golden:
            cell = MeasureCell(
                dataset=record["dataset"],
                n_keys=record["n_keys"],
                seed=record["seed"],
                key_bits=record["key_bits"],
                index=record["index"],
                config=freeze_config(record["config"]),
                n_lookups=record["n_lookups"],
                warmup=record["warmup"],
                warm=record["warm"],
                search=record["search"],
            )
            m = cell.run(profile=True)
            assert m.phases is not None
            assert m.latency_ns == record["latency_ns"]
            assert m.fence_latency_ns == record["fence_latency_ns"]
            assert m.avg_log2_bound == record["avg_log2_bound"]
            for name, value in record["counters"].items():
                assert getattr(m.counters, name) == value, name
            assert (
                phase_sum(m.phases).per_lookup(m.n_lookups) == m.counters
            )
