"""Scenario: explain *why* one index beats another (paper Section 4.3).

Collects per-lookup performance counters for a set of index
configurations on two datasets, then reproduces the paper's regression
analysis: lookup time as a linear function of cache misses, branch misses
and instruction count.

Run:  python examples/explain_performance.py
"""

from repro.bench.config import BenchSettings
from repro.bench.experiments.common import measure_cells, sweep_cells
from repro.bench.stats import ols


def main() -> None:
    settings = BenchSettings(n_keys=60_000, n_lookups=300, max_configs=4)
    cells = []
    for ds_name in ("amzn", "osm"):
        for index_name in ("RMI", "PGM", "RS", "BTree", "ART"):
            cells.extend(sweep_cells(ds_name, index_name, settings))
    measurements = measure_cells(cells)

    print(f"{len(measurements)} measurements\n")
    print(f"{'index':8s} {'dataset':6s} {'size MB':>9s} {'ns':>6s} "
          f"{'miss':>6s} {'brmiss':>7s} {'instr':>7s}")
    for m in measurements:
        c = m.counters
        print(
            f"{m.index:8s} {m.dataset:6s} {m.size_mb:9.4f} "
            f"{m.latency_ns:6.0f} {c.llc_misses:6.2f} "
            f"{c.branch_misses:7.2f} {c.instructions:7.1f}"
        )

    result = ols(
        {
            "cache_misses": [m.counters.llc_misses for m in measurements],
            "branch_misses": [m.counters.branch_misses for m in measurements],
            "instructions": [m.counters.instructions for m in measurements],
        },
        [m.latency_ns for m in measurements],
    )
    print(f"\nOLS: R^2 = {result.r_squared:.3f} (paper reports 0.955)")
    for c in result.coefficients:
        if c.name == "intercept":
            continue
        print(
            f"  {c.name:14s} std beta = {c.standardized:+.3f}  "
            f"p = {c.p_value:.2g} "
            f"{'(significant)' if c.significant() else ''}"
        )
    biggest = max(
        (c for c in result.coefficients if c.name != "intercept"),
        key=lambda c: abs(c.standardized),
    )
    print(f"\nlargest explanatory factor: {biggest.name} "
          f"(the paper's conclusion: cache misses)")


if __name__ == "__main__":
    main()
