"""Experiment-driver plumbing: sweeps, caches, selection helpers."""

import pytest

from repro.bench.config import BenchSettings
from repro.bench.experiments import common


@pytest.fixture()
def tiny_settings():
    return BenchSettings(n_keys=2_500, n_lookups=40, warmup=20, max_configs=2)


class TestSelectionHelpers:
    def _measurements(self, tiny_settings):
        ds, wl = common.dataset_and_workload("amzn", tiny_settings)
        return common.sweep(ds, wl, "PGM", tiny_settings)

    def test_fastest_picks_min_latency(self, tiny_settings):
        ms = self._measurements(tiny_settings)
        assert common.fastest(ms).latency_ns == min(m.latency_ns for m in ms)

    def test_closest_to_size(self, tiny_settings):
        ms = self._measurements(tiny_settings)
        target = ms[0].size_bytes
        assert common.closest_to_size(ms, target) is ms[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            common.fastest([])
        with pytest.raises(ValueError):
            common.closest_to_size([], 100)


class TestMemoization:
    def test_cached_measure_reuses(self, tiny_settings):
        ds, wl = common.dataset_and_workload("amzn", tiny_settings)
        a = common.cached_measure(ds, wl, "BS", {}, tiny_settings)
        b = common.cached_measure(ds, wl, "BS", {}, tiny_settings)
        assert a is b

    def test_different_search_not_conflated(self, tiny_settings):
        ds, wl = common.dataset_and_workload("amzn", tiny_settings)
        a = common.cached_measure(ds, wl, "BS", {}, tiny_settings, search="binary")
        b = common.cached_measure(
            ds, wl, "BS", {}, tiny_settings, search="interpolation"
        )
        assert a is not b

    def test_clear_caches(self, tiny_settings):
        ds, wl = common.dataset_and_workload("amzn", tiny_settings)
        a = common.cached_measure(ds, wl, "BS", {}, tiny_settings)
        common.clear_caches()
        b = common.cached_measure(ds, wl, "BS", {}, tiny_settings)
        assert a is not b

    def test_workload_covers_warmup(self, tiny_settings):
        ds, wl = common.dataset_and_workload("amzn", tiny_settings)
        assert wl.n >= tiny_settings.n_lookups + tiny_settings.warmup


class TestSweep:
    def test_sweep_respects_max_configs(self, tiny_settings):
        ds, wl = common.dataset_and_workload("amzn", tiny_settings)
        ms = common.sweep(ds, wl, "RMI", tiny_settings)
        assert len(ms) <= tiny_settings.max_configs

    def test_sweep_override(self, tiny_settings):
        ds, wl = common.dataset_and_workload("amzn", tiny_settings)
        ms = common.sweep(ds, wl, "RMI", tiny_settings, max_configs=1)
        assert len(ms) == 1


class TestWorkloads:
    """One memoized workload builder serves inline drivers and cells."""

    def test_workload_keyed_on_warmup(self):
        common.clear_caches()
        short = BenchSettings(n_keys=2_500, n_lookups=100, warmup=50)
        long = BenchSettings(n_keys=2_500, n_lookups=100, warmup=300)
        assert common.dataset_and_workload("amzn", short)[1].n == 150
        _, wl = common.dataset_and_workload("amzn", long)
        assert wl.n == 400
        # A cell of the same grid measures the very same workload.
        cell = common.cell_for("amzn", "BS", {}, long)
        assert cell.materialize()[1] is wl

    def test_grid_over_one_dataset_builds_one_workload(
        self, tiny_settings, monkeypatch
    ):
        from repro.bench import cells, parallel

        built = []
        real = cells.make_workload

        def spy(*args, **kwargs):
            built.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(cells, "make_workload", spy)
        common.clear_caches()
        grid = common.sweep_cells("amzn", "RMI", tiny_settings)
        grid += common.sweep_cells("amzn", "PGM", tiny_settings)
        assert len(grid) == 4
        parallel.run_cells(grid, jobs=1, memo={})
        assert built == [tiny_settings.n_lookups + tiny_settings.warmup]
