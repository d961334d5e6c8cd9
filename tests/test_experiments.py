"""Every experiment driver runs end-to-end on tiny settings."""

import pytest

from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments import EXPERIMENT_CELLS, EXPERIMENTS
from repro.bench.parallel import run_cells


@pytest.fixture(scope="module")
def tiny():
    return BenchSettings(
        n_keys=3_000,
        n_lookups=60,
        warmup=30,
        max_configs=2,
        datasets=["amzn", "osm"],
    )


ALL_IDS = sorted(EXPERIMENTS)


def test_cli_lists_all_paper_artifacts():
    paper_artifacts = {
        "table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "sec4.3",
    }
    assert paper_artifacts <= set(EXPERIMENTS)
    extras = set(EXPERIMENTS) - paper_artifacts
    # extension experiments are explicit
    assert extras == {
        "ext1", "ext2", "ext3", "ext_serving", "ext_cluster", "ext_tenants",
        "ext_reconfig",
    }


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_produces_report(tiny, exp_id, monkeypatch):
    """A grid driver reads only the cells its ``cells()`` lists: once
    the runner has resolved them, the driver executes no cell."""
    if exp_id in EXPERIMENT_CELLS:
        run_cells(EXPERIMENT_CELLS[exp_id](tiny))

        def unlisted(cell, *args, **kwargs):
            raise AssertionError(
                f"{exp_id} executed unlisted cell {cell.label()}"
            )

        monkeypatch.setattr(MeasureCell, "run", unlisted)
    report = EXPERIMENTS[exp_id](tiny)
    assert isinstance(report, str)
    assert len(report) > 50


class TestReportContents:
    def test_table1_has_all_methods(self, tiny):
        report = EXPERIMENTS["table1"](tiny)
        for name in ("PGM", "RMI", "Wormhole", "CuckooMap", "BS"):
            assert name in report

    def test_fig7_marks_pareto(self, tiny):
        report = EXPERIMENTS["fig7"](tiny)
        assert "pareto" in report
        assert "binary search baseline" in report

    def test_table2_contains_hashes(self, tiny):
        report = EXPERIMENTS["table2"](tiny)
        assert "RobinHash" in report
        assert "CuckooMap" in report

    def test_regression_reports_r2(self, tiny):
        report = EXPERIMENTS["sec4.3"](tiny)
        assert "R^2" in report
        assert "cache_misses" in report

    def test_fig16_reports_speedup(self, tiny):
        report = EXPERIMENTS["fig16"](tiny)
        assert "speedup" in report
        assert "RobinHash" in report

    def test_fig15_reports_slowdown(self, tiny):
        report = EXPERIMENTS["fig15"](tiny)
        assert "slowdown" in report


class TestCli:
    def test_main_runs_single_experiment(self, capsys):
        from repro.bench.__main__ import main

        rc = main(["--experiment", "table1", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_rejects_unknown(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--experiment", "fig99"]) == 2

    def test_settings_overrides(self):
        from repro.bench.__main__ import build_parser, settings_from_args

        args = build_parser().parse_args(
            ["--quick", "--n-keys", "1234", "--datasets", "osm"]
        )
        s = settings_from_args(args)
        assert s.n_keys == 1234
        assert s.datasets == ["osm"]
        assert s.max_configs == 4  # from quick preset
