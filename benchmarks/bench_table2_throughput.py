"""Table II: average normalised throughput improvement (Lambda/lambda).

The timed section is the eta-sweep grid (the k-sweep is timed by
bench_table1 and shared through the session's grid fixture).
"""

from __future__ import annotations

from bench_table1_cross_shard import ROW_SETTINGS, collect_summaries
from conftest import METHODS, METIS, PILOT, RANDOM, TXALLO, by_setting, emit
from repro.analysis.tables import comparison_table


def test_table2_throughput(benchmark, grid, output_dir):
    benchmark.pedantic(grid, args=("eta-sweep",), rounds=1, iterations=1)

    summaries = collect_summaries(grid)
    text = comparison_table(
        summaries,
        metric="mean_normalized_throughput",
        allocators=METHODS,
        row_settings=ROW_SETTINGS,
        value_format="{:.2f}",
        lower_is_better=False,
    )
    emit(
        output_dir,
        "table2_throughput",
        "Table II: normalised throughput (Lambda/lambda)",
        text,
    )

    by_key = by_setting(summaries)
    # Pattern-aware methods beat random everywhere.
    for k in (4, 16, 32):
        random_throughput = by_key[(RANDOM, k, 2.0)][
            "mean_normalized_throughput"
        ]
        for method in (PILOT, TXALLO, METIS):
            assert (
                by_key[(method, k, 2.0)]["mean_normalized_throughput"]
                > random_throughput
            )
    # Throughput grows with k (paper: 2.3 -> 7.6 -> 13.1 for Pilot).
    pilot = [
        by_key[(PILOT, k, 2.0)]["mean_normalized_throughput"] for k in (4, 16, 32)
    ]
    assert pilot[0] < pilot[1] < pilot[2]
    # Higher eta hurts throughput (paper: 3.69 at eta=5 vs 1.95 at eta=10).
    assert (
        by_key[(PILOT, 16, 10.0)]["mean_normalized_throughput"]
        < by_key[(PILOT, 16, 5.0)]["mean_normalized_throughput"]
    )
    # Pilot retains ~98% of the best baseline (we assert >= 85%).
    for k in (4, 16, 32):
        best = max(
            by_key[(m, k, 2.0)]["mean_normalized_throughput"]
            for m in (TXALLO, METIS)
        )
        assert by_key[(PILOT, k, 2.0)]["mean_normalized_throughput"] >= 0.85 * best
