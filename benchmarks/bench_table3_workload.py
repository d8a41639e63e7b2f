"""Table III: average workload deviation across shards.

Reuses the Tables I-II grids; the timed section is the
workload-metric kernel itself (classification + deviation over one
full epoch batch), the per-epoch cost every evaluation pays.
"""

from __future__ import annotations

import numpy as np

from bench_table1_cross_shard import ROW_SETTINGS, collect_summaries
from conftest import METHODS, METIS, PILOT, RANDOM, TXALLO, by_setting, emit
from repro.analysis.tables import comparison_table
from repro.chain.mapping import ShardMapping
from repro.sim.metrics import shard_workloads, workload_deviation


def test_table3_workload_deviation(benchmark, grid, output_dir, bench_trace):
    mapping = ShardMapping.uniform_random(
        bench_trace.n_accounts, 16, np.random.default_rng(0)
    )
    batch = bench_trace.batch[:20_000]

    def metric_kernel():
        omega = shard_workloads(batch, mapping, eta=2.0)
        return workload_deviation(omega / (len(batch) / 16))

    benchmark(metric_kernel)

    summaries = collect_summaries(grid)
    text = comparison_table(
        summaries,
        metric="mean_workload_deviation",
        allocators=METHODS,
        row_settings=ROW_SETTINGS,
        value_format="{:.2f}",
        lower_is_better=True,
    )
    emit(
        output_dir,
        "table3_workload_deviation",
        "Table III: workload deviation",
        text,
    )

    by_key = by_setting(summaries)
    # Hash-random is the most balanced up to noise (paper: best in every
    # row; at small scale the pattern-aware methods occasionally tie it).
    for k in (4, 16, 32):
        random_dev = by_key[(RANDOM, k, 2.0)]["mean_workload_deviation"]
        for method in (PILOT, TXALLO, METIS):
            method_dev = by_key[(method, k, 2.0)]["mean_workload_deviation"]
            assert method_dev >= 0.6 * random_dev
    # Deviation grows with k for Pilot (paper: 0.22 -> 0.59 -> 0.83).
    pilot = [
        by_key[(PILOT, k, 2.0)]["mean_workload_deviation"] for k in (4, 16, 32)
    ]
    assert pilot[0] < pilot[2]
