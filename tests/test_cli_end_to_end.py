"""End-to-end CLI: every experiment through the real entry point."""

import json
import os

import pytest

from repro.bench.__main__ import main
from repro.datasets.generators import FACE_N_OUTLIERS
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


def test_all_experiments_at_the_key_floor(capsys):
    """The smallest accepted --n-keys runs every driver: face needs its
    outliers, and every size sweep keeps at least one configuration."""
    rc = main(
        ["--experiment", "all", "--n-keys", str(FACE_N_OUTLIERS),
         "--n-lookups", "5", "--warmup", "0", "--no-cache"]
    )
    assert rc == 0
    assert "[sec4.3]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag,value",
    [("--n-keys", "0"), ("--n-keys", "1"), ("--n-keys", "99"),
     ("--n-lookups", "0"), ("--warmup", "-5"), ("--max-configs", "0"),
     ("--max-configs", "-1")],
)
def test_rejects_sizes_that_cannot_run(flag, value, capsys):
    """Refused at argument parsing (exit 2, usage error), before any
    cell runs -- and before a negative warmup gets its own cache key."""
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "table1", "--no-cache", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "must be at least" in err


@pytest.mark.parametrize(
    "names,bad,message",
    [
        (["--indexes", "RMI", "NoSuchIndex"], "'NoSuchIndex'", "unknown name"),
        (["--indexes", "RMI", "PGM", "RMI"], "'RMI'", "given twice"),
        (["--datasets", "amzn", "osm", "amzn"], "'amzn'", "given twice"),
    ],
    ids=["unknown-index", "repeated-index", "repeated-dataset"],
)
def test_rejects_unknown_and_repeated_names(names, bad, message, capsys):
    """A usage error naming the flag and the value, before any cell runs:
    the drivers print a row or a section per name."""
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "fig7", "--no-cache", *names])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert names[0] in err and bad in err and message in err


def test_profiled_rerun_refreshes_unprofiled_records(
    tmp_path, monkeypatch, capsys
):
    """A --profile run over a cache of unprofiled records recomputes
    each cell (a record without phases is stale, not unusable) and
    overwrites it in place: no reject, no quarantined copy."""
    from repro.bench.experiments import common
    from repro.obs.metrics import get_registry

    monkeypatch.delenv("REPRO_OBS_PROFILE", raising=False)
    cache_dir = tmp_path / "cache"
    argv = ["--experiment", "fig7", *TINY[:-1], "--cache-dir", str(cache_dir)]
    reg = get_registry()
    try:
        for extra in ([], ["--profile"]):
            common.clear_caches()  # resolve through the cache, not the memo
            reg.reset()
            assert main(argv + extra) == 0
        names = os.listdir(cache_dir)
        assert not [n for n in names if n.endswith(".rejected")]
        assert reg.snapshot()["counters"].get("bench.cache.rejects", 0) == 0
        assert len(names) == 17
        for name in names:
            with open(cache_dir / name) as f:
                assert "phases" in json.load(f)["measurement"]
    finally:
        common.clear_caches()
        reg.reset()


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
