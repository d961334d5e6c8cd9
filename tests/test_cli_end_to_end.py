"""End-to-end CLI: every experiment through the real entry point."""

import json
import os

import pytest

from repro.bench.__main__ import main
from repro.obs.phase import profiling_enabled

TINY = [
    "--quick",
    "--n-keys",
    "2000",
    "--n-lookups",
    "25",
    "--warmup",
    "15",
    "--max-configs",
    "2",
    "--datasets",
    "amzn",
    "--no-cache",
]


def test_all_experiments_tiny(tmp_path, capsys):
    """`--experiment all` runs every driver and saves artifacts."""
    measurements_path = str(tmp_path / "m.json")
    rc = main(
        [
            "--experiment",
            "all",
            "--quick",
            "--n-keys",
            "2000",
            "--n-lookups",
            "25",
            "--warmup",
            "15",
            "--max-configs",
            "2",
            "--datasets",
            "amzn",
            "--save-measurements",
            measurements_path,
            "--save-svg",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for marker in ("[table1]", "[fig7]", "[fig17]", "[ext3]", "[sec4.3]"):
        assert marker in out
    records = json.load(open(measurements_path))
    assert len(records) > 10
    assert (tmp_path / "pareto_amzn.svg").exists()


@pytest.mark.parametrize(
    "flag,value",
    [("--n-keys", "0"), ("--n-keys", "1"), ("--n-lookups", "0"),
     ("--warmup", "-5")],
)
def test_rejects_sizes_that_cannot_run(flag, value, capsys):
    """Refused at argument parsing (exit 2, usage error), before any
    cell runs -- and before a negative warmup gets its own cache key."""
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "table1", "--no-cache", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "must be at least" in err


def test_main_restores_process_switches(tmp_path, monkeypatch, capsys):
    """--profile and --obs-dir set switches pool workers inherit; an
    in-process caller gets its own values back when main returns."""
    monkeypatch.delenv("REPRO_OBS_PROFILE", raising=False)
    monkeypatch.setenv("REPRO_OBS", "0")
    rc = main(
        ["--experiment", "table1", *TINY, "--profile",
         "--obs-dir", str(tmp_path / "obs")]
    )
    assert rc == 0
    assert (tmp_path / "obs" / "manifest.json").exists()
    assert not profiling_enabled()
    assert "REPRO_OBS_PROFILE" not in os.environ
    assert os.environ["REPRO_OBS"] == "0"
