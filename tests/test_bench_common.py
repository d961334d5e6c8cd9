"""Experiment-driver plumbing: sweeps, caches, selection helpers."""

from dataclasses import replace

import pytest

from repro.bench.cache import MeasurementCache
from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments import common


@pytest.fixture()
def tiny_settings():
    return BenchSettings(n_keys=2_500, n_lookups=40, warmup=20, max_configs=2)


class TestSelectionHelpers:
    def _measurements(self, tiny_settings):
        cells = common.sweep_cells("amzn", "PGM", tiny_settings)
        return common.measure_cells(cells)

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
        cell = MeasureCell.make("amzn", "BS", {}, tiny_settings)
        (a,) = common.measure_cells([cell])
        (b,) = common.measure_cells([cell])
        assert a is b

    def test_different_search_not_conflated(self, tiny_settings):
        a, b = common.measure_cells(
            [
                MeasureCell.make(
                    "amzn", "BS", {}, tiny_settings, search="binary"
                ),
                MeasureCell.make(
                    "amzn", "BS", {}, tiny_settings, search="interpolation"
                ),
            ]
        )
        assert a is not b

    def test_clear_caches(self, tiny_settings):
        cell = MeasureCell.make("amzn", "BS", {}, tiny_settings)
        (a,) = common.measure_cells([cell])
        common.clear_caches()
        (b,) = common.measure_cells([cell])
        assert a is not b

    def test_workload_covers_warmup(self, tiny_settings):
        _, wl = MeasureCell.make("amzn", "BS", {}, tiny_settings).materialize()
        assert wl.n >= tiny_settings.n_lookups + tiny_settings.warmup

    def test_reads_active_cache(self, tiny_settings, tmp_path, monkeypatch):
        cell = MeasureCell.make("amzn", "BS", {}, tiny_settings)
        common.clear_caches()
        common.set_active_cache(MeasurementCache(str(tmp_path)))
        try:
            (a,) = common.measure_cells([cell])
            common.clear_caches()

            def fail(self, *args, **kwargs):
                raise AssertionError(f"executed {self.label()}")

            monkeypatch.setattr(MeasureCell, "run", fail)
            (b,) = common.measure_cells([cell])
        finally:
            common.set_active_cache(None)
        assert b.to_dict() == a.to_dict()
        assert common._MEASUREMENTS[cell] is b


class TestSweep:
    def test_sweep_respects_max_configs(self, tiny_settings):
        cells = common.sweep_cells("amzn", "RMI", tiny_settings)
        ms = common.measure_cells(cells)
        assert 0 < len(ms) <= tiny_settings.max_configs

    def test_sweep_override(self, tiny_settings):
        one = replace(tiny_settings, max_configs=1)
        cells = common.sweep_cells("amzn", "RMI", one)
        assert len(common.measure_cells(cells)) == 1


class TestWorkloads:
    """One memoized workload builder serves every cell."""

    def test_workload_keyed_on_warmup(self):
        common.clear_caches()
        short = BenchSettings(n_keys=2_500, n_lookups=100, warmup=50)
        long = BenchSettings(n_keys=2_500, n_lookups=100, warmup=300)
        bs_short = MeasureCell.make("amzn", "BS", {}, short)
        assert bs_short.materialize()[1].n == 150
        _, wl = MeasureCell.make("amzn", "BS", {}, long).materialize()
        assert wl.n == 400
        # Another cell over the same dataset measures the very same workload.
        cell = common.sweep_cells("amzn", "RMI", long)[0]
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
