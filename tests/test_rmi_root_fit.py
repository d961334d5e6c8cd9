"""RMI and RMI3 fit their root once per key array (``models.fit_root``).

A second build on the same keys must give the same index, and must
still report a from-scratch build time: the reused fit is charged at
what the first fit took.
"""

import numpy as np
import pytest

from repro.bench.experiments import common
from repro.core import make_index
from repro.datasets import make_dataset
from repro.learned import kernels, models
from repro.learned.models import ROOT_FIT_SLOTS, fit_root, make_model


@pytest.fixture(autouse=True)
def empty_memo():
    models.clear_root_fits()
    yield
    models.clear_root_fits()


def _keys(seed=3, n=4_000, key_bits=64):
    ds = make_dataset("amzn", n, seed=seed, key_bits=key_bits)
    return ds.keys.astype(np.uint32 if key_bits == 32 else np.uint64)


def _first_fit_seconds():
    ((_model, seconds),) = models._ROOT_FITS.values()
    return seconds


@pytest.mark.parametrize("name", ["RMI", "RMI3"])
def test_second_build_equals_first(name):
    keys = _keys()
    first = make_index(name, branching=256).build(keys)
    second = make_index(name, branching=256).build(keys)
    assert second.root is first.root
    assert second._root_params.values.tobytes() == (
        first._root_params.values.tobytes()
    )
    records = "_records" if name == "RMI" else "_leaves"
    assert getattr(second, records).values.tobytes() == (
        getattr(first, records).values.tobytes()
    )
    if name == "RMI3":
        assert second._mid.values.tobytes() == first._mid.values.tobytes()
    extremes = np.array([0, 2**64 - 1], dtype=np.uint64)
    probes = np.concatenate([keys[::7], keys[::11] + 1, extremes])
    if kernels.supports(first):
        for a, b in zip(
            kernels.batch_bounds(first, probes),
            kernels.batch_bounds(second, probes),
        ):
            assert np.array_equal(a, b)
    else:
        for key in probes.tolist():
            assert second.lookup(key) == first.lookup(key)


@pytest.mark.parametrize("name", ["RMI", "RMI3"])
def test_reused_fit_is_charged_at_the_first_fits_time(name):
    keys = _keys()
    first = make_index(name, branching=64).build(keys)
    assert first.reused_seconds == 0.0
    seconds = _first_fit_seconds()
    assert seconds > 0.0
    second = make_index(name, branching=64).build(keys)
    assert second.reused_seconds == seconds
    assert second.build_seconds >= seconds


def test_the_shared_fit_is_a_fresh_fit():
    keys = _keys().astype(np.float64)
    model, saved = fit_root("cubic", keys)
    assert saved == 0.0
    fresh = make_model("cubic").fit(keys, np.arange(len(keys), dtype=np.float64))
    assert tuple(model.params()) == tuple(fresh.params())


def test_kinds_do_not_share_a_fit():
    keys = _keys().astype(np.float64)
    assert fit_root("cubic", keys)[1] == 0.0
    assert fit_root("linear", keys)[1] == 0.0
    assert len(models._ROOT_FITS) == 2


def test_one_changed_key_misses():
    keys = _keys()
    make_index("RMI", branching=64).build(keys)
    changed = keys.copy()
    changed[len(keys) // 2] += 1  # amzn gaps are wide; still sorted, unique
    assert np.all(np.diff(changed) > 0)
    again = make_index("RMI", branching=64).build(changed)
    assert again.reused_seconds == 0.0
    assert len(models._ROOT_FITS) == 2


def test_32_and_64_bit_arrays_of_equal_length_miss():
    keys32 = _keys(key_bits=32)
    keys64 = _keys()[: len(keys32)]
    assert len(keys32) == len(keys64)
    make_index("RMI", branching=64).build(keys64)
    built = make_index("RMI", branching=64).build(keys32)
    assert built.reused_seconds == 0.0
    assert len(models._ROOT_FITS) == 2


def test_lru_never_exceeds_its_bound():
    base = np.arange(64, dtype=np.float64) * 3.0
    for i in range(ROOT_FIT_SLOTS + 5):
        fit_root("cubic", base + i)
        assert len(models._ROOT_FITS) <= ROOT_FIT_SLOTS
    assert len(models._ROOT_FITS) == ROOT_FIT_SLOTS
    # The oldest arrays were evicted; the newest is still held.
    assert fit_root("cubic", base)[1] == 0.0
    assert fit_root("cubic", base + ROOT_FIT_SLOTS + 4)[1] > 0.0


def test_a_hit_becomes_most_recently_used():
    base = np.arange(64, dtype=np.float64) * 3.0
    for i in range(ROOT_FIT_SLOTS):
        fit_root("cubic", base + i)
    fit_root("cubic", base)  # refresh the oldest entry
    fit_root("cubic", base + ROOT_FIT_SLOTS)  # evicts base + 1 instead
    assert fit_root("cubic", base)[1] > 0.0
    assert fit_root("cubic", base + 1)[1] == 0.0


def test_clear_caches_empties_the_memo():
    make_index("RMI", branching=64).build(_keys())
    assert len(models._ROOT_FITS) == 1
    common.clear_caches()
    assert len(models._ROOT_FITS) == 0
