"""Measurement harness."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.bench import harness
from repro.bench.harness import (
    LookupError_,
    Measurement,
    build_index,
    measure,
    measure_index,
)
from repro.datasets import make_dataset, make_workload
from repro.memsim import ReferenceEngine, TracedArray
from repro.obs import spans

from conftest import mirror_built


@pytest.fixture(scope="module")
def ds():
    return make_dataset("amzn", 4_000, seed=21)


@pytest.fixture(scope="module")
def wl(ds):
    return make_workload(ds, 600, seed=22)


class TestBuildIndex:
    def test_builds_in_shared_space(self, ds):
        built = build_index(ds, "RMI", {"branching": 64})
        assert built.index.size_bytes() > 0
        assert len(built.data) == ds.n
        # Data, payloads and index internals share the address space:
        # allocated in that order, at distinct, increasing bases.
        index = built.index
        internals = [index._records, index._root_params]
        bases = [a.base for a in [built.data, built.payloads] + internals]
        assert bases == sorted(set(bases))
        assert built.data.base + built.data.nbytes <= built.payloads.base
        assert built.payloads.base + built.payloads.nbytes <= bases[2]
        assert built.space._next >= bases[-1] + internals[-1].nbytes

    def test_32bit_dataset_gets_32bit_data_array(self):
        ds32 = make_dataset("amzn", 2_000, key_bits=32)
        built = build_index(ds32, "BTree", {"gap": 1})
        assert built.data.itemsize == 4

    def test_64bit_build_reads_the_dataset_keys_in_place(self, ds):
        built = build_index(ds, "RMI", {"branching": 64})
        assert np.shares_memory(built.data.values, ds.keys)
        assert np.shares_memory(built.payloads.values, ds.payloads)


class TestMeasure:
    def test_basic_measurement(self, ds, wl):
        m = measure_index(ds, wl, "RMI", {"branching": 256}, n_lookups=100, warmup=50)
        assert isinstance(m, Measurement)
        assert m.latency_ns > 0
        assert m.counters.reads > 0
        assert m.size_mb > 0
        assert m.n_lookups == 100

    def test_verification_catches_broken_index(self, ds, wl):
        """Zeroed error bounds around shifted predictions: the batched
        path and the per-lookup loop both read the corrupted leaves."""
        built = build_index(ds, "RMI", {"branching": 64})
        recs = built.index._records
        leaves = recs.values.reshape(-1, 5).copy()
        leaves[:, 1] += 1e6  # intercept
        leaves[:, 2] = 0.0  # error bound
        built.index._records = TracedArray(leaves.ravel(), recs.base, recs.name)
        for engine in (None, ReferenceEngine):
            with pytest.raises(LookupError_):
                measure(built, wl, n_lookups=50, warmup=0, engine=engine)

    def test_cold_slower_than_warm(self, ds, wl):
        warm = measure_index(ds, wl, "BTree", {"gap": 1}, n_lookups=150, warmup=100)
        cold = measure_index(
            ds, wl, "BTree", {"gap": 1}, n_lookups=150, warmup=100, warm=False
        )
        assert cold.latency_ns > 1.3 * warm.latency_ns

    def test_fence_slower(self, ds, wl):
        m = measure_index(ds, wl, "RMI", {"branching": 256}, n_lookups=100)
        assert m.fence_latency_ns > m.latency_ns

    def test_search_variants(self, ds, wl):
        for search in ("binary", "linear", "interpolation"):
            m = measure_index(
                ds, wl, "PGM", {"epsilon": 32}, n_lookups=80, search=search
            )
            assert m.search == search
            assert m.latency_ns > 0

    def test_log2_bound_tracks_epsilon(self, ds, wl):
        wide = measure_index(ds, wl, "PGM", {"epsilon": 128}, n_lookups=80)
        narrow = measure_index(ds, wl, "PGM", {"epsilon": 4}, n_lookups=80)
        assert wide.avg_log2_bound > narrow.avg_log2_bound

    def test_point_only_hash_measures(self, ds, wl):
        m = measure_index(ds, wl, "RobinHash", {}, n_lookups=100)
        assert m.latency_ns > 0

    def test_bs_has_zero_size(self, ds, wl):
        m = measure_index(ds, wl, "BS", {}, n_lookups=80)
        assert m.size_bytes == 0
        assert m.counters.reads > 8  # all work in the last mile


class TestReplayKeyword:
    """``replay`` survives only as a keyword that must stay False."""

    def test_replay_true_raises(self, ds, wl):
        built = build_index(ds, "BTree", {"gap": 1})
        with pytest.raises(ValueError, match="replay"):
            measure(built, wl, n_lookups=10, warmup=0, replay=True)

    def test_bound_default_is_false(self, ds, wl):
        # benchmarks/e2e/tracer.py binds measure's arguments this way.
        bound = inspect.signature(measure).bind(build_index(ds, "BS"), wl)
        bound.apply_defaults()
        assert bound.arguments["replay"] is False


class TestMeasureSpans:
    @pytest.fixture(autouse=True)
    def spans_on(self):
        spans.reset()
        spans.enable(True)
        yield
        spans.reset()

    def test_batched_synthesis_is_a_child_of_measure(self, ds, wl):
        built = build_index(ds, "RMI", {"branching": 64})
        with spans.capture() as first:
            measure(built, wl, n_lookups=50, warmup=20)
        with spans.capture() as repeat:
            measure(built, wl, n_lookups=50, warmup=20)
        assert [r["path"] for r in first.records] == [
            "measure/synthesize",
            "measure",
        ]
        # Nothing is cached on `built`: a repeat synthesizes again.
        assert [r["path"] for r in repeat.records] == [
            "measure/synthesize",
            "measure",
        ]


@pytest.fixture
def batched_calls(monkeypatch):
    """Names of the indexes ``measure`` sent down the batched path."""
    entered = []
    real = harness._measure_batched

    def spy(*args, **kwargs):
        entered.append(args[0].index.name)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_measure_batched", spy)
    return entered


class TestListMirrors:
    """Which traced arrays a grid cell turns into Python lists."""

    def test_batched_cell_builds_no_mirror(self, ds, wl, batched_calls):
        built = build_index(ds, "RMI", {"branching": 64})
        measure(built, wl, n_lookups=50, warmup=20)
        assert batched_calls == ["RMI"]
        assert not mirror_built(built.data)
        assert not mirror_built(built.payloads)

    def test_scalar_cell_builds_only_the_data_mirror(
        self, ds, wl, batched_calls
    ):
        built = build_index(ds, "ART", {"gap": 1})
        assert not mirror_built(built.data)
        measure(built, wl, n_lookups=50, warmup=20, search="interpolation")
        assert batched_calls == []  # the per-lookup loop ran
        assert mirror_built(built.data)
        assert not mirror_built(built.payloads)
        assert built.index._lists is not None  # ART's scalar lookup

    def test_batched_art_cell_builds_no_lists(self, ds, wl, batched_calls):
        built = build_index(ds, "ART", {"gap": 1})
        measure(built, wl, n_lookups=50, warmup=20)
        assert batched_calls == ["ART"]
        assert built.index._lists is None
        assert not mirror_built(built.data)

    def test_only_scalar_hash_lookups_build_lists(self, ds, wl, batched_calls):
        built = build_index(ds, "RobinHash", {})
        measure(built, wl, n_lookups=50, warmup=20)
        assert batched_calls == ["RobinHash"]
        assert built.index._lists is None
        measure(built, wl, n_lookups=50, warmup=20, search="interpolation")
        assert batched_calls == ["RobinHash"]  # the per-lookup loop ran
        assert built.index._lists is not None


class TestMeasureDispatch:
    """``measure`` picks its path from the index alone, and both paths
    equal the reference engine oracle byte for byte."""

    CONFIGS = {
        "RMI": {"branching": 64},
        "PGM": {"epsilon": 16},
        "RS": {"epsilon": 16, "radix_bits": 8},
        "BTree": {"gap": 4},
        "ART": {"gap": 4},
        "BS": {},
        "RBS": {"radix_bits": 8},
        "IBTree": {"gap": 4},
        "FAST": {"gap": 4},
        "RobinHash": {},
        "CuckooMap": {},
        "Wormhole": {"gap": 4},
        "FST": {"gap": 4},
    }
    BATCHED = (
        "RMI", "PGM", "RS", "BTree", "BS", "RBS", "IBTree", "FAST", "ART",
        "RobinHash", "CuckooMap",
    )
    #: Indexes measured over 32-bit keys, the only keys CuckooMap takes.
    KEYS32 = ("CuckooMap",)

    @pytest.fixture(scope="class")
    def inputs32(self):
        ds = make_dataset("amzn", 4_000, seed=21, key_bits=32)
        return ds, make_workload(ds, 600, seed=22)

    @pytest.mark.parametrize("index", CONFIGS)
    @pytest.mark.parametrize("warm", [True, False])
    def test_batched_exactly_where_kernels_apply(
        self, ds, wl, inputs32, batched_calls, index, warm
    ):
        self._check(ds, wl, inputs32, batched_calls, index, warm, "binary")

    @pytest.mark.parametrize("index", CONFIGS)
    @pytest.mark.parametrize("warm", [True, False])
    def test_linear_search_batched_where_kernels_apply(
        self, ds, wl, inputs32, batched_calls, index, warm
    ):
        self._check(ds, wl, inputs32, batched_calls, index, warm, "linear")

    def _check(self, ds, wl, inputs32, entered, index, warm, search):
        if index in self.KEYS32:
            ds, wl = inputs32
        config = self.CONFIGS[index]
        batched = index in self.BATCHED
        kw = dict(n_lookups=120, warmup=60, warm=warm, search=search)
        product = measure(build_index(ds, index, config), wl, **kw)
        assert entered == ([index] if batched else [])
        oracle = measure(
            build_index(ds, index, config), wl, engine=ReferenceEngine, **kw
        )
        assert entered == ([index] if batched else [])
        for f in dataclasses.fields(product):
            if f.name != "build_seconds":
                assert getattr(product, f.name) == getattr(oracle, f.name), (
                    f.name
                )
