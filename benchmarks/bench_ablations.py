"""Ablations of Mosaic's design choices (DESIGN.md §7).

1. **MR capacity cap** — lambda-capped vs unlimited beacon commitment.
2. **Oracle freshness** — next-epoch mempool (paper) vs trailing window.
3. **Commitment order** — gain-prioritised vs FIFO under congestion.

Each ablation runs the Mosaic allocator with one knob flipped and
reports the three effectiveness metrics side by side. The two
allocator variants are registered builders (``mosaic-pilot-unlimited``,
``mosaic-pilot-fifo``); the trailing oracle is the ``oracle_mode`` of a
one-cell grid.
"""

from __future__ import annotations

from conftest import PILOT, emit
from repro.util.formatting import render_table

#: Row label -> (grid, method) of each variant.
VARIANTS = {
    "paper (cap, lookahead, gain)": ("ablations", PILOT),
    "unlimited migrations": ("ablations", "mosaic-pilot-unlimited"),
    "fifo commitment": ("ablations", "mosaic-pilot-fifo"),
    "trailing oracle": ("ablations-trailing", PILOT),
}


def test_ablations(benchmark, grid, output_dir):
    def run_all():
        return {
            label: next(s for s in grid(name) if s["allocator"] == method)
            for label, (name, method) in VARIANTS.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    headers = [
        "Variant",
        "Cross-shard ratio",
        "Throughput",
        "Workload dev.",
        "Migrations",
    ]
    rows = [
        [
            label,
            f"{summary['mean_cross_shard_ratio']:.2%}",
            f"{summary['mean_normalized_throughput']:.2f}",
            f"{summary['mean_workload_deviation']:.2f}",
            summary["total_migrations"],
        ]
        for label, summary in results.items()
    ]
    emit(
        output_dir,
        "ablations",
        "Ablations: Mosaic design choices (k = 16, eta = 2)",
        render_table(headers, rows),
    )

    paper = results["paper (cap, lookahead, gain)"]
    unlimited = results["unlimited migrations"]
    # Lifting the cap can only increase committed migrations.
    assert unlimited["total_migrations"] >= paper["total_migrations"]
    # Every variant stays in the same effectiveness ballpark: the knobs
    # trade convergence speed, not steady-state quality.
    for summary in results.values():
        assert summary["mean_cross_shard_ratio"] < 0.95
        assert summary["mean_normalized_throughput"] > 1.0
