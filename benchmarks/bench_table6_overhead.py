"""Table VI: the quantitative framework comparison.

Evaluates the storage / communication / computation-input formulas of
Section VI on the measured benchmark trace plus the migration volume
Mosaic actually committed, then renders the quantitative half of
Table VI. The timed section is the overhead-model evaluation.
"""

from __future__ import annotations

from conftest import PILOT, by_setting, emit
from repro.analysis.tables import overhead_table
from repro.chain.network import OverheadModel


def test_table6_overhead(benchmark, grid, bench_trace, output_dir):
    pilot = by_setting(grid("k-sweep"))[(PILOT, 16, 2.0)]
    epochs = max(1, pilot["epochs"])
    window_transactions = pilot["total_transactions"] // epochs
    window_migrations = pilot["total_migrations"] // epochs

    def build_model():
        return OverheadModel(
            total_transactions=len(bench_trace),
            total_accounts=bench_trace.n_accounts,
            k=16,
            window_transactions=window_transactions,
            committed_migrations=pilot["total_migrations"],
            window_migrations=window_migrations,
        )

    model = benchmark(build_model)
    estimates = model.all_frameworks()
    emit(
        output_dir,
        "table6_overhead",
        "Table VI (quantitative): per-miner overhead",
        overhead_table(model),
    )

    graph = estimates["graph-based"]
    mosaic = estimates["mosaic"]
    hashed = estimates["hash-based"]
    # Paper's ordering: graph-based pays full-ledger costs; Mosaic pays
    # the 1/k shard share plus the (bounded) migration log; hash-based
    # pays only the shard share.
    assert graph.storage_bytes > mosaic.storage_bytes > hashed.storage_bytes
    assert graph.communication_bytes > mosaic.communication_bytes
    # Mosaic's miner storage stays within ~2/k of graph-based (Section VI).
    assert mosaic.storage_bytes <= 2 * graph.storage_bytes / 16 * 1.5
    # The client-side computation input is orders of magnitude below the
    # miner-side graph input.
    assert mosaic.computation_input_bytes < graph.computation_input_bytes / 100
