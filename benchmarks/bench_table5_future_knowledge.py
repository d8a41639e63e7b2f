"""Table V: impact of future knowledge (the beta sweep).

All clients share the same beta in {0, 0.25, 0.5, 0.75, 1}; the paper
uses k = 4, eta = 2 for this analysis because allocation is most stable
with few shards. The timed section is the full five-cell grid.
"""

from __future__ import annotations

from conftest import PILOT, emit
from repro.analysis.tables import beta_sweep_table


def test_table5_beta_sweep(benchmark, grid, output_dir):
    summaries = benchmark.pedantic(
        grid, args=("beta-sweep",), rounds=1, iterations=1
    )
    text = beta_sweep_table(summaries, allocator=PILOT)
    emit(
        output_dir,
        "table5_future_knowledge",
        "Table V: impact of future knowledge (k = 4, eta = 2)",
        text,
    )

    by_beta = {s["beta"]: s for s in summaries}
    # Paper: beta = 0 is the worst cross-shard ratio; knowledge helps.
    worst = by_beta[0.0]["mean_cross_shard_ratio"]
    assert by_beta[0.75]["mean_cross_shard_ratio"] <= worst
    assert by_beta[0.5]["mean_cross_shard_ratio"] <= worst
    # Throughput at high beta is at least as good as at beta = 0.
    assert (
        by_beta[0.75]["mean_normalized_throughput"]
        >= by_beta[0.0]["mean_normalized_throughput"] - 0.05
    )
