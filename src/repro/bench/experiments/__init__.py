"""Experiment drivers: one module per table/figure of the paper.

Each module exposes ``run(settings: BenchSettings) -> str`` returning the
harness's text report.  ``EXPERIMENTS`` maps the ids used by the CLI
(``python -m repro.bench --experiment fig7``) to those callables.

A grid driver also exposes ``cells(settings) -> List[MeasureCell]``, its
measurement grid, and its ``run`` formats the measurements
``common.measure_cells`` returns for those cells.  ``EXPERIMENT_CELLS``
maps the ids of every module that defines ``cells`` to it, so the
parallel runner (:mod:`repro.bench.parallel`) can pre-compute every
measurement before the drivers format reports.  The other experiments
(capability tables, CDF plots, non-grid extensions) run inline.
"""

from repro.bench.experiments import (
    ext_cluster,
    ext_learned_variants,
    ext_readwrite,
    ext_reconfig,
    ext_serving,
    ext_skew,
    ext_tenants,
    fig6_cdfs,
    fig7_pareto,
    fig8_strings,
    fig9_scaling,
    fig10_keysize,
    fig11_search,
    fig12_metrics,
    fig13_compression,
    fig14_cold_cache,
    fig15_fences,
    fig16_multithread,
    fig17_build_times,
    sec43_regression,
    table1_capabilities,
    table2_fastest,
)

#: Every experiment id the CLI accepts, in ``--experiment all`` order.
_MODULES = {
    "table1": table1_capabilities,
    "fig6": fig6_cdfs,
    "fig7": fig7_pareto,
    "fig8": fig8_strings,
    "table2": table2_fastest,
    "fig9": fig9_scaling,
    "fig10": fig10_keysize,
    "fig11": fig11_search,
    "fig12": fig12_metrics,
    "sec4.3": sec43_regression,
    "fig13": fig13_compression,
    "fig14": fig14_cold_cache,
    "fig15": fig15_fences,
    "fig16": fig16_multithread,
    "fig17": fig17_build_times,
    "ext1": ext_learned_variants,
    "ext2": ext_skew,
    "ext3": ext_readwrite,
    "ext_serving": ext_serving,
    "ext_cluster": ext_cluster,
    "ext_tenants": ext_tenants,
    "ext_reconfig": ext_reconfig,
}

EXPERIMENTS = {exp_id: module.run for exp_id, module in _MODULES.items()}

#: Grid enumerators for the parallel runner: every driver that has one.
EXPERIMENT_CELLS = {
    exp_id: module.cells
    for exp_id, module in _MODULES.items()
    if hasattr(module, "cells")
}

__all__ = ["EXPERIMENTS", "EXPERIMENT_CELLS"]
