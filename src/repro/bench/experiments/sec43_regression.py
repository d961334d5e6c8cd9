"""Section 4.3: linear regression analysis of lookup time.

Reproduces the paper's statistical claims: regressing lookup time on
cache misses, branch misses and instruction count across every index and
dataset explains ~95% of variance; size and log2 error add nothing once
those three are included (p > 0.15 in the paper); cache misses carry the
largest standardized coefficient.
"""

from __future__ import annotations

from typing import List

from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments.common import (
    FIG7_INDEXES,
    measure_cells,
    sweep_cells,
)
from repro.bench.harness import Measurement
from repro.bench.report import format_table
from repro.bench.stats import RegressionResult, ols


def cells(settings: BenchSettings) -> List[MeasureCell]:
    out: List[MeasureCell] = []
    for ds_name in settings.datasets:
        for index_name in settings.indexes or FIG7_INDEXES:
            out.extend(sweep_cells(ds_name, index_name, settings))
    return out


def regress(ms: List[Measurement], with_size_and_error: bool) -> RegressionResult:
    features = {
        "cache_misses": [m.counters.llc_misses for m in ms],
        "branch_misses": [m.counters.branch_misses for m in ms],
        "instructions": [m.counters.instructions for m in ms],
    }
    if with_size_and_error:
        features["size_mb"] = [m.size_mb for m in ms]
        features["log2_error"] = [m.avg_log2_bound for m in ms]
    return ols(features, [m.latency_ns for m in ms])


def run(settings: BenchSettings) -> str:
    ms = measure_cells(cells(settings))
    base = regress(ms, with_size_and_error=False)
    extended = regress(ms, with_size_and_error=True)

    def table(result: RegressionResult) -> str:
        return format_table(
            ["feature", "beta", "std beta", "t", "p"],
            [
                (
                    c.name,
                    f"{c.beta:.4g}",
                    f"{c.standardized:.3f}",
                    f"{c.t_stat:.2f}",
                    f"{c.p_value:.2g}",
                )
                for c in result.coefficients
            ],
        )

    parts = [
        "Section 4.3: regression of lookup time on performance counters",
        f"({len(ms)} measurements across datasets {settings.datasets})",
        "",
        f"counters only: R^2 = {base.r_squared:.3f} (paper: 0.955)",
        table(base),
        "",
        f"+ size and log2 error: R^2 = {extended.r_squared:.3f}",
        table(extended),
        "",
        "paper's claims to check: cache/branch/instruction p < 0.001; "
        "size & log2-error add little once counters are included; "
        "cache misses have the largest |standardized beta|.",
    ]
    return "\n".join(parts)
