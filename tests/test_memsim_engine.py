"""Unit tests for the memsim engine layer (`repro.memsim.engine`).

The tracer's default engine, the SiteInterner, API parity between
PerfTracer over the reference engine and the fast engine (fed per call,
and under the ``vector`` id through ``replay``), and the
BranchPredictor table-materialization regression.  Counter *equivalence*
between engines lives in ``tests/test_memsim_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.memsim import (
    BranchPredictor,
    Cache,
    CacheHierarchy,
    FastEngine,
    PerfCounters,
    PerfTracer,
    ReferenceEngine,
    SiteInterner,
    TraceRecorder,
)
from repro.memsim.engine import _build_fast_engine
from repro.memsim.tlb import TLB

from conftest import ReplayedFastEngine

ENGINES = {
    "reference": ReferenceEngine,
    "fast": FastEngine,
    "vector": ReplayedFastEngine,
}


class TestSiteInterner:
    def test_ids_are_dense_and_stable(self):
        si = SiteInterner()
        assert si.intern("a") == 0
        assert si.intern("b") == 1
        assert si.intern("a") == 0
        assert len(si) == 2
        assert si.name(0) == "a" and si.name(1) == "b"

    def test_shared_interner_agrees_across_engines(self):
        si = SiteInterner()
        ref = ReferenceEngine(sites=si)
        fast = FastEngine(sites=si)
        assert ref.sites is si and fast.sites is si


class TestEngineSelection:
    def test_default_is_fast_engine(self):
        t = PerfTracer()
        assert isinstance(t.engine, FastEngine)
        assert t.sites is t.engine.sites

    def test_custom_components_imply_reference(self):
        """Custom component objects exist only on the reference engine,
        which the caller builds and passes in."""
        caches = CacheHierarchy(l1=Cache(4096, 4, "tiny"))
        t = PerfTracer(engine=ReferenceEngine(caches=caches))
        assert t.engine.name == "reference"
        assert t.caches is caches

    def test_prebuilt_engine_instance(self):
        eng = FastEngine()
        t = PerfTracer(engine=eng)
        assert t.engine is eng


class TestTracerApiParity:
    """Every engine exposes the same PerfTracer surface."""

    @pytest.mark.parametrize("name", ENGINES)
    def test_counters_snapshot_flush(self, name):
        t = PerfTracer(engine=ENGINES[name]())
        t.read(0x1000, 8)
        t.instr(5)
        t.branch("x", True)
        c = t.counters
        assert isinstance(c, PerfCounters)
        assert c.reads == 1 and c.branches == 1
        assert c.instructions == 1 + 5 + 1
        snap = t.snapshot()
        t.instr(1)
        assert snap.instructions == 7  # snapshot is detached
        t.flush_caches()
        # Flush drops cache/TLB state but not accumulated counters.
        assert t.counters.reads == 1
        before = t.counters.llc_misses
        t.read(0x1000, 8)
        # Cold again after flush: page walk + data line both go to DRAM.
        assert t.counters.llc_misses == before + 2

    def test_reference_exposes_components(self):
        t = PerfTracer(engine=ReferenceEngine())
        assert isinstance(t.caches, CacheHierarchy)
        assert isinstance(t.predictor, BranchPredictor)
        assert isinstance(t.tlb, TLB)

    def test_fast_engine_has_no_component_objects(self):
        t = PerfTracer()
        for attr in ("caches", "predictor", "tlb"):
            with pytest.raises(AttributeError, match="ReferenceEngine"):
                getattr(t, attr)

    @pytest.mark.parametrize("name", ENGINES)
    def test_n_branch_sites_counts_distinct_sites(self, name):
        eng = ENGINES[name]()
        for site, taken in [("a", True), ("a", True), ("b", False)]:
            eng.branch(site, taken)
        assert eng.n_branch_sites() == 2

    def test_fast_n_branch_sites_ignores_interned_but_unbranched(self):
        si = SiteInterner()
        si.intern("never-branched")
        eng = FastEngine(sites=si)
        eng.branch("real", True)
        assert eng.n_branch_sites() == 1


#: Default (size, associativity) of L1d, L2 and L3.
LEVELS = ((32 * 1024, 8), (256 * 1024, 8), (1024 * 1024, 16))


def fast_state():
    """The state a FastEngine wraps: (sets getter, read, flush)."""
    ns = _build_fast_engine(*LEVELS, (64, 1536), SiteInterner())
    return ns["_sets"], ns["read"], ns["flush_caches"]


def vector_state():
    """The same state, with every read sent through ``replay``."""
    ns = _build_fast_engine(*LEVELS, (64, 1536), SiteInterner())

    def read(addr):
        recorder = TraceRecorder()
        recorder.read(addr)
        ns["replay"](recorder.finish())

    return ns["_sets"], read, ns["flush_caches"]


@pytest.mark.parametrize("state", [fast_state, vector_state])
class TestEmptySets:
    """Every empty set is its own copy of the level's sentinel list."""

    @staticmethod
    def assert_empty_and_distinct(sets_of):
        levels = sets_of()
        for sets, (_, assoc) in zip(levels, LEVELS):
            sentinel = list(range(-1, -assoc - 1, -1))
            assert all(s == sentinel for s in sets)
        all_sets = [s for sets in levels for s in sets]
        assert len(set(map(id, all_sets))) == len(all_sets) == 1600
        # Filling one set leaves every other set unchanged.
        first = levels[0][0]
        first.insert(0, 12345)
        first.pop()
        assert all(s[0] < 0 for s in all_sets[1:])

    def test_fresh_engine(self, state):
        sets_of, _, _ = state()
        self.assert_empty_and_distinct(sets_of)

    def test_flush_resets_sets_in_place(self, state):
        sets_of, read, flush = state()
        levels = sets_of()
        for addr in range(0, 1 << 21, 4096 + 64):
            read(addr)
        assert any(s[0] >= 0 for sets in levels for s in sets)
        flush()
        assert all(a is b for a, b in zip(sets_of(), levels))
        self.assert_empty_and_distinct(sets_of)


class TestBranchTableMaterialization:
    """Regression (satellite fix): every branched site gets a table entry.

    A site whose counter sits at a saturation boundary (always-taken
    from the first outcome, or pinned at 0/3) must still materialize in
    the predictor table so ``n_sites()`` counts static branches.
    """

    def test_always_taken_site_is_materialized(self):
        p = BranchPredictor()
        for _ in range(4):  # reaches and then sits at saturation (3)
            p.predict_and_update("loop.backedge", True)
        assert p.n_sites() == 1
        assert p._table["loop.backedge"] == 3

    def test_never_taken_saturated_site_stays_materialized(self):
        p = BranchPredictor()
        for _ in range(5):
            p.predict_and_update("cold.path", False)
        assert p._table["cold.path"] == 0
        # Further not-taken outcomes at the floor still keep the entry.
        p.predict_and_update("cold.path", False)
        assert p.n_sites() == 1

    def test_prediction_semantics_unchanged(self):
        p = BranchPredictor()
        # Initial state is weak-taken: first taken outcome predicted.
        assert p.predict_and_update("s", True) is True
        assert p.predict_and_update("s", False) is False  # strong-taken now
        assert p.predict_and_update("s", False) is False  # weak-taken
        assert p.predict_and_update("s", False) is True  # weak-not-taken
