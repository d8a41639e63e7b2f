"""Figure 1: the six-dimension radar comparison.

Builds the radar axes from measured simulation results (throughput,
intra-shard ratio, workload balance, computation time) combined with
the Section VI overhead model (storage, communication), normalises to
the paper's [1, 5] scale, and emits the per-method scores that Fig. 1
plots. The timed section is the axes + normalisation computation.
"""

from __future__ import annotations

from conftest import PILOT, RANDOM, TXALLO, by_setting, emit
from repro.analysis.radar import RADAR_DIMENSIONS, RadarAxes, radar_scores
from repro.chain.network import OverheadModel
from repro.util.formatting import render_table

METHODS = [PILOT, TXALLO, RANDOM]


def test_fig1_radar(benchmark, grid, bench_trace, output_dir):
    by_key = by_setting(grid("k-sweep"))
    results = {m: by_key[(m, 16, 2.0)] for m in METHODS}
    pilot = results[PILOT]
    epochs = max(1, pilot["epochs"])
    model = OverheadModel(
        total_transactions=len(bench_trace),
        total_accounts=bench_trace.n_accounts,
        k=16,
        window_transactions=pilot["total_transactions"] // epochs,
        committed_migrations=pilot["total_migrations"],
        window_migrations=pilot["total_migrations"] // epochs,
    )
    overheads = {
        PILOT: model.mosaic(),
        TXALLO: model.graph_based(),
        RANDOM: model.hash_based(),
    }

    def compute_scores():
        axes = {}
        for method in METHODS:
            summary = results[method]
            overhead = overheads[method]
            axes[method] = RadarAxes.from_measurements(
                unit_time=max(summary["mean_unit_time"], 1e-12),
                storage_bytes=overhead.storage_bytes,
                communication_bytes=overhead.communication_bytes,
                normalized_throughput=summary["mean_normalized_throughput"],
                cross_shard_ratio=summary["mean_cross_shard_ratio"],
                workload_deviation=max(summary["mean_workload_deviation"], 1e-12),
            )
        return radar_scores(axes)

    scores = benchmark(compute_scores)

    headers = ["Dimension"] + METHODS
    rows = [
        [dimension] + [f"{scores[m][dimension]:.2f}" for m in METHODS]
        for dimension in RADAR_DIMENSIONS
    ]
    emit(
        output_dir,
        "fig1_radar",
        "Figure 1: radar scores, normalised to [1, 5]",
        render_table(headers, rows),
    )

    # Shape checks mirroring the paper's Fig. 1: Mosaic sits near the
    # top of the computation-efficiency axis (hash-based shares it, as
    # in the paper); hash-based wins workload balance; the pattern-aware
    # methods win intra-shard ratio and throughput.
    assert scores[PILOT]["computation_efficiency"] >= 4.0
    assert (
        scores[PILOT]["computation_efficiency"]
        > scores[TXALLO]["computation_efficiency"]
    )
    assert scores[RANDOM]["workload_balance_index"] == 5.0
    assert scores[PILOT]["intra_shard_ratio"] > scores[RANDOM]["intra_shard_ratio"]
    assert scores[TXALLO]["storage_efficiency"] == 1.0
    for method in METHODS:
        for dimension in RADAR_DIMENSIONS:
            assert 1.0 <= scores[method][dimension] <= 5.0
