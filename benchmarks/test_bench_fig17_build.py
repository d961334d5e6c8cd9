"""Figure 17 companion: real wall-clock build times per index.

Every round times a from-scratch build: RMI fits its root once per key
array (``models.fit_root``), so each round first empties that memo.
"""

import pytest

from repro.bench.harness import build_index
from repro.learned.models import clear_root_fits
from conftest import BENCH_CONFIGS

BUILDS = [
    "PGM",
    "RS",
    "RMI",
    "RBS",
    "ART",
    "BTree",
    "IBTree",
    "FAST",
    "FST",
    "Wormhole",
    "RobinHash",
]


@pytest.mark.parametrize("index_name", BUILDS)
def test_build(benchmark, amzn, index_name):
    config = BENCH_CONFIGS[index_name]
    built = benchmark.pedantic(
        build_index, args=(amzn, index_name, config),
        setup=clear_root_fits, rounds=5,
    )
    assert built.index.size_bytes() >= 0
