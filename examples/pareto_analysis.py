"""Scenario: choose an index for a memory budget (the paper's Figure 7).

You're sizing the in-memory index of a read-only store and have a hard
memory budget.  This example sweeps learned and traditional indexes over
their size knobs on a dataset, computes the Pareto front, and answers:
what is the fastest index that fits?

Run:  python examples/pareto_analysis.py [dataset] [budget_mb]
"""

import sys

from repro.bench.config import BenchSettings
from repro.bench.experiments.common import (
    FIG7_INDEXES,
    measure_cells,
    sweep_cells,
)
from repro.core.pareto import ParetoPoint, pareto_front


def main(dataset_name: str = "amzn", budget_mb: float = 0.05) -> None:
    settings = BenchSettings(n_keys=80_000, n_lookups=400, max_configs=5)
    print(
        f"sweeping {FIG7_INDEXES} on {dataset_name} "
        f"({settings.n_keys} keys)..."
    )

    cells = []
    for index_name in FIG7_INDEXES:
        cells.extend(sweep_cells(dataset_name, index_name, settings))
    measurements = measure_cells(cells)

    points = [
        ParetoPoint(m.index, m.size_bytes, m.latency_ns, m.config)
        for m in measurements
    ]
    front = pareto_front(points)

    print("\nPareto front (size ascending):")
    for p in front:
        print(
            f"  {p.index:8s} {p.size_mb:10.4f} MB  {p.latency_ns:7.0f} ns  "
            f"{p.config}"
        )

    fitting = [p for p in front if p.size_mb <= budget_mb]
    if fitting:
        best = min(fitting, key=lambda p: p.latency_ns)
        print(
            f"\nfastest index within {budget_mb} MB: {best.index} "
            f"{best.config} ({best.latency_ns:.0f} ns, {best.size_mb:.4f} MB)"
        )
    else:
        print(f"\nno configuration fits within {budget_mb} MB")


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else "amzn"
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05
    main(name, budget)
