"""Dataset generators, loader, workloads."""

import numpy as np
import pytest

from repro.datasets.generators import FACE_N_OUTLIERS, GENERATORS
from repro.datasets.loader import DATASET_NAMES, make_dataset
from repro.datasets.workload import make_workload


@pytest.mark.parametrize("name", DATASET_NAMES)
class TestGeneratorContract:
    def test_exact_count(self, name):
        keys = GENERATORS[name](3_000, seed=1)
        assert len(keys) == 3_000

    def test_sorted_unique(self, name):
        keys = GENERATORS[name](3_000, seed=1)
        as_obj = keys.astype(object)
        assert all(b > a for a, b in zip(as_obj, as_obj[1:]))

    def test_deterministic(self, name):
        a = GENERATORS[name](2_000, seed=9)
        b = GENERATORS[name](2_000, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_data(self, name):
        a = GENERATORS[name](2_000, seed=1)
        b = GENERATORS[name](2_000, seed=2)
        assert not np.array_equal(a, b)

    def test_dtype_uint64(self, name):
        assert GENERATORS[name](500, seed=0).dtype == np.uint64


class TestDatasetProperties:
    def test_face_has_extreme_outliers(self):
        keys = GENERATORS["face"](5_000, seed=0)
        n_huge = int(np.sum(keys > np.uint64(1 << 59)))
        assert n_huge == FACE_N_OUTLIERS
        # Outliers wreck the top radix bits: the largest key is >= 2**59
        # while the 99th percentile of the body is < 2**50.
        assert int(keys[-FACE_N_OUTLIERS - 1]) < (1 << 50)

    def test_osm_harder_to_learn_than_amzn(self):
        """The paper's central osm observation, via PLA segment counts."""
        from repro.learned.pla import fit_pla

        amzn = GENERATORS["amzn"](8_000, seed=0)
        osm = GENERATORS["osm"](8_000, seed=0)
        segs_amzn = len(fit_pla(amzn.tolist(), 32.0))
        segs_osm = len(fit_pla(osm.tolist(), 32.0))
        assert segs_osm > 2 * segs_amzn

    def test_wiki_keys_look_like_timestamps(self):
        keys = GENERATORS["wiki"](2_000, seed=0)
        assert int(keys[0]) > 1_000_000_000
        assert int(keys[-1]) < 2_000_000_000


class TestLoader:
    def test_payloads_match_keys(self):
        ds = make_dataset("amzn", 1_000)
        assert len(ds.payloads) == len(ds.keys)

    def test_memoized(self):
        a = make_dataset("wiki", 1_000, seed=4)
        b = make_dataset("wiki", 1_000, seed=4)
        assert a is b

    def test_32bit_variant(self):
        ds = make_dataset("amzn", 2_000, key_bits=32)
        assert int(ds.keys.max()) < (1 << 32)
        assert ds.key_bits == 32

    def test_32bit_preserves_cdf_shape(self):
        ds64 = make_dataset("amzn", 2_000)
        ds32 = make_dataset("amzn", 2_000, key_bits=32)
        k64, p64 = ds64.cdf(sample=50)
        k32, p32 = ds32.cdf(sample=50)
        norm64 = (k64 - k64[0]) / float(k64[-1] - k64[0])
        norm32 = (k32 - k32[0]) / float(k32[-1] - k32[0])
        assert np.allclose(norm64, norm32, atol=0.02)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            make_dataset("nope", 100)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            make_dataset("amzn", 100, key_bits=16)

    def test_checksum(self):
        ds = make_dataset("amzn", 1_000)
        assert ds.checksum([0, 1]) == int(ds.payloads[0]) + int(ds.payloads[1])

    def test_disk_cache_roundtrip(self, tmp_path):
        from repro.datasets import loader

        loader._CACHE.clear()
        a = make_dataset("osm", 800, seed=7, cache_dir=str(tmp_path))
        loader._CACHE.clear()
        b = make_dataset("osm", 800, seed=7, cache_dir=str(tmp_path))
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.payloads, b.payloads)

    def test_memoized_arrays_are_read_only(self, tmp_path):
        """Every caller shares a memoized dataset's arrays (index builds
        read its keys without a copy), so none may write into them --
        generated or loaded from a cache dir."""
        from repro.datasets import loader

        loader._CACHE.clear()
        made = make_dataset("osm", 800, seed=8, cache_dir=str(tmp_path))
        loader._CACHE.clear()
        loaded = make_dataset("osm", 800, seed=8, cache_dir=str(tmp_path))
        for ds in (made, loaded):
            for arr in (ds.keys, ds.payloads):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1


class TestWorkload:
    def test_present_mode_keys_exist(self, amzn_small):
        wl = make_workload(amzn_small, 200, mode="present")
        key_set = set(amzn_small.keys.tolist())
        assert all(k in key_set for k in wl.keys_py)

    def test_true_positions_correct(self, amzn_small):
        wl = make_workload(amzn_small, 200, mode="mixed")
        keys = amzn_small.keys
        for k, p in zip(wl.keys_py[:50], wl.positions_py[:50]):
            assert p == int(np.searchsorted(keys, np.uint64(k)))

    def test_uniform_mode_within_range(self, amzn_small):
        wl = make_workload(amzn_small, 100, mode="uniform")
        lo, hi = int(amzn_small.keys[0]), int(amzn_small.keys[-1])
        assert all(lo <= k <= hi for k in wl.keys_py)

    def test_expected_checksum_matches_manual(self, amzn_small):
        wl = make_workload(amzn_small, 50, mode="present")
        manual = sum(int(amzn_small.payloads[p]) for p in wl.positions_py)
        assert wl.expected_checksum() == manual

    def test_bad_mode_rejected(self, amzn_small):
        with pytest.raises(ValueError):
            make_workload(amzn_small, 10, mode="bogus")

    def test_deterministic(self, amzn_small):
        a = make_workload(amzn_small, 100, seed=2)
        b = make_workload(amzn_small, 100, seed=2)
        assert a.keys_py == b.keys_py
