"""Batch-predict kernels == scalar lookups, element-wise.

``repro.learned.kernels`` vectorizes the model phase of RMI/PGM/RS
lookups (and the last-mile binary search) over sorted key batches.  The
contract is *bit*-equality with the scalar path: same positions, same
error bounds, and a synthesized per-key event stream whose replay is
counter-identical to recording the scalar lookup -- for present keys,
duplicate probes, and out-of-range probes alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import _LOOP_INSTR, build_index
from repro.datasets.loader import Dataset
from repro.learned import kernels
from repro.memsim import (
    PerfTracer,
    ReferenceEngine,
    SiteInterner,
    TraceRecorder,
)
from repro.search.last_mile import SEARCH_FUNCTIONS

_CONFIGS = [
    ("RMI", {"branching": 8}),
    ("RMI", {"branching": 64, "stage1": "linear"}),
    ("PGM", {"epsilon": 4}),
    ("RS", {"radix_bits": 8, "epsilon": 4}),
]
_IDS = [f"{n}-{'-'.join(map(str, c.values()))}" for n, c in _CONFIGS]


def _dataset(key_set, key_bits=64) -> Dataset:
    keys = np.array(sorted(key_set), dtype=np.uint64)
    return Dataset("synth", keys, np.arange(len(keys), dtype=np.uint64),
                   key_bits=key_bits)


def _probes(keys: np.ndarray, picks) -> np.ndarray:
    """Present keys, near-misses, out-of-range extremes, and duplicates."""
    lo_k = int(keys[0])
    hi_k = int(keys[-1])
    out = []
    for idx, kind in picks:
        if kind == "present":
            out.append(int(keys[idx % len(keys)]))
        elif kind == "absent":
            out.append(int(keys[idx % len(keys)]) ^ 1)
        elif kind == "low":
            out.append(max(lo_k - 1 - idx, 0))
        else:
            out.append(min(hi_k + 1 + idx, (1 << 64) - 1))
    # Guaranteed duplicates and extremes in every batch.
    out += [out[0], int(keys[0]), int(keys[-1]), 0, (1 << 64) - 1]
    return np.array(out, dtype=np.uint64)


def _scalar_lookup(built, key, search, sites):
    """One scalar lookup, recorded exactly as the measure loop feeds it."""
    rec = TraceRecorder(sites=sites)
    bound = built.index.lookup(key, rec)
    pos = SEARCH_FUNCTIONS[search](built.data, key, bound, rec)
    rec.instr(_LOOP_INSTR)
    if pos < len(built.data):
        built.payloads.touch(pos, rec)
    return bound, pos, rec.finish()


def _assert_batch_matches_scalar(built, probes):
    sites = SiteInterner()
    batch = kernels.batch_lookups(
        built.index, built.data, built.payloads, probes, "binary", sites
    )
    pos_l = batch.pos.tolist()
    lo_l = batch.lo.tolist()
    hi_l = batch.hi.tolist()
    for r, key in enumerate(probes.tolist()):
        bound, pos, trace = _scalar_lookup(built, key, "binary", sites)
        assert (lo_l[r], hi_l[r]) == (bound.lo, bound.hi), key
        assert pos_l[r] == pos, key
        # Same stream, counter-wise: replay both on fresh reference
        # engines (the stream is state-independent by construction).
        t_scalar = PerfTracer(engine=ReferenceEngine(sites=sites))
        t_scalar.replay(trace)
        t_batch = PerfTracer(engine=ReferenceEngine(sites=sites))
        t_batch.replay(batch.trace_for(r))
        assert t_batch.snapshot() == t_scalar.snapshot(), key


@pytest.mark.parametrize("index_name,config", _CONFIGS, ids=_IDS)
@given(
    key_set=st.sets(st.integers(0, (1 << 63) - 1), min_size=60, max_size=160),
    picks=st.lists(
        st.tuples(
            st.integers(0, 1 << 20),
            st.sampled_from(["present", "absent", "low", "high"]),
        ),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=15, deadline=None)
def test_batch_equals_scalar_elementwise(index_name, config, key_set, picks):
    ds = _dataset(key_set)
    built = build_index(ds, index_name, config)
    _assert_batch_matches_scalar(built, _probes(ds.keys, picks))


@pytest.mark.parametrize("index_name,config", _CONFIGS, ids=_IDS)
def test_batch_equals_scalar_32bit(index_name, config):
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(0, 1 << 32, 500, dtype=np.uint64))
    ds = _dataset(keys, key_bits=32)
    built = build_index(ds, index_name, config)
    picks = [(i * 37, k) for i, k in enumerate(
        ["present", "absent", "low", "high"] * 6
    )]
    _assert_batch_matches_scalar(built, _probes(ds.keys, picks))


def test_batch_bounds_alone_matches_lookup():
    ds = _dataset(range(0, 50_000, 7))
    built = build_index(ds, "PGM", {"epsilon": 16})
    probes = np.array(
        [0, 7, 8, 49_993, 49_999, 1 << 60, 3, 3, 3], dtype=np.uint64
    )
    lo, hi = kernels.batch_bounds(built.index, probes)
    for r, key in enumerate(probes.tolist()):
        bound = built.index.lookup(key, PerfTracer(engine=ReferenceEngine()))
        assert (int(lo[r]), int(hi[r])) == (bound.lo, bound.hi), key


def test_supports_is_exact_class_match():
    ds = _dataset(range(0, 3_000, 3))
    assert kernels.supports(build_index(ds, "RMI", {"branching": 8}).index)
    assert not kernels.supports(build_index(ds, "BTree", {}).index)


def test_unsupported_index_and_search_raise():
    ds = _dataset(range(0, 3_000, 3))
    btree = build_index(ds, "BTree", {})
    probes = np.array([3, 9], dtype=np.uint64)
    with pytest.raises(TypeError, match="no batch kernel"):
        kernels.batch_bounds(btree.index, probes)
    rmi = build_index(ds, "RMI", {"branching": 8})
    with pytest.raises(ValueError, match="no batched synthesis"):
        kernels.batch_lookups(
            rmi.index, rmi.data, rmi.payloads, probes, "linear",
            SiteInterner(),
        )
