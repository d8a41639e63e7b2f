"""Table I: average cross-shard transaction ratios.

Regenerates the paper's Table I rows — Pilot vs TxAllo vs Metis vs
hash-random across k in {4, 16, 32} (eta = 2) and eta in {5, 10}
(k = 16). The timed section is the k-sweep grid.
"""

from __future__ import annotations

from conftest import METHODS, METIS, PILOT, RANDOM, TXALLO, by_setting, emit
from repro.analysis.tables import comparison_table

ROW_SETTINGS = [
    {"k": 4, "eta": 2.0, "label": "k = 4"},
    {"k": 16, "eta": 2.0, "label": "k = 16 (default)"},
    {"k": 32, "eta": 2.0, "label": "k = 32"},
    {"k": 16, "eta": 5.0, "label": "eta = 5"},
    {"k": 16, "eta": 10.0, "label": "eta = 10"},
]


def collect_summaries(grid):
    """All 20 simulation summaries backing Tables I-III."""
    return grid("k-sweep") + grid("eta-sweep")


def test_table1_cross_shard_ratio(benchmark, grid, output_dir):
    # The k-sweep is the heavy half of the Tables I-III workload.
    benchmark.pedantic(grid, args=("k-sweep",), rounds=1, iterations=1)

    summaries = collect_summaries(grid)
    text = comparison_table(
        summaries,
        metric="mean_cross_shard_ratio",
        allocators=METHODS,
        row_settings=ROW_SETTINGS,
        value_format="{:.2%}",
        lower_is_better=True,
    )
    emit(output_dir, "table1_cross_shard", "Table I: cross-shard ratio", text)

    # Shape assertions mirroring the paper's claims.
    by_key = by_setting(summaries)
    for k in (4, 16, 32):
        random_ratio = by_key[(RANDOM, k, 2.0)]["mean_cross_shard_ratio"]
        for method in (PILOT, TXALLO, METIS):
            assert by_key[(method, k, 2.0)]["mean_cross_shard_ratio"] < random_ratio
    # Ratio grows with k for the pattern-aware methods.
    assert (
        by_key[(PILOT, 4, 2.0)]["mean_cross_shard_ratio"]
        < by_key[(PILOT, 32, 2.0)]["mean_cross_shard_ratio"]
    )
