"""One-shot experiment runner: regenerate every table and figure.

Runs the full evaluation (Tables I-VI, Fig. 1) through the scenario-
matrix runner (``repro.experiments``) and prints paper-style tables,
also writing them (plus a JSON dump of all run summaries and a
matrix-only ``BENCH_baseline.json`` of the Table II sweep) to
``benchmarks/output/``. It never writes the repo-root
``BENCH_baseline.json``: ``python -m repro bench`` regenerates that.

Usage::

    python benchmarks/run_experiments.py [--quick] [--workers N]

``--quick`` shrinks the trace for a fast smoke run; ``--workers`` fans
the matrix cells out over a process pool (bit-identical results).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import (  # noqa: E402  (path set up above)
    BENCH_SEED,
    BENCH_TAU,
    BENCH_TRACE_CONFIG,
    METIS,
    PILOT,
    RANDOM,
    TXALLO,
    TXALLO_ADAPTIVE,
    emit,
)
from repro.analysis.radar import RADAR_DIMENSIONS, RadarAxes, radar_scores
from repro.analysis.tables import beta_sweep_table, comparison_table, overhead_table
from repro.chain.network import OverheadModel
from repro.data.ethereum import EthereumTraceConfig
from repro.experiments import (
    ScenarioMatrix,
    TraceSpec,
    baseline_snapshot,
    run_matrix,
)
from repro.util.formatting import format_bytes, format_seconds, render_table

METHODS = [PILOT, TXALLO, METIS, RANDOM]
ROW_SETTINGS = [
    {"k": 4, "eta": 2.0, "label": "k = 4"},
    {"k": 16, "eta": 2.0, "label": "k = 16 (default)"},
    {"k": 32, "eta": 2.0, "label": "k = 32"},
    {"k": 16, "eta": 5.0, "label": "eta = 5"},
    {"k": 16, "eta": 10.0, "label": "eta = 10"},
]
BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Wall-clock of the Table II-equivalent workload (4 methods x k = 16 x
#: eta in {2, 5, 10}) measured at the seed revision (d28bae8) on this
#: machine, before the vectorised epoch pipeline landed. The
#: ``BENCH_baseline.json`` snapshot reports the current run's speedup
#: against this reference.
SEED_REFERENCE = {
    "revision": "d28bae8 (seed)",
    "total_seconds": 48.33,
    "cells": {
        "mosaic-pilot/bench/k16/eta2/beta0/tau40": 0.471,
        "txallo/bench/k16/eta2/beta0/tau40": 4.507,
        "metis/bench/k16/eta2/beta0/tau40": 10.51,
        "hash-random/bench/k16/eta2/beta0/tau40": 0.02,
        "mosaic-pilot/bench/k16/eta5/beta0/tau40": 0.537,
        "txallo/bench/k16/eta5/beta0/tau40": 4.721,
        "metis/bench/k16/eta5/beta0/tau40": 10.93,
        "hash-random/bench/k16/eta5/beta0/tau40": 0.018,
        "mosaic-pilot/bench/k16/eta10/beta0/tau40": 0.53,
        "txallo/bench/k16/eta10/beta0/tau40": 5.078,
        "metis/bench/k16/eta10/beta0/tau40": 10.99,
        "hash-random/bench/k16/eta10/beta0/tau40": 0.02,
    },
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small fast run")
    parser.add_argument(
        "--workers", type=int, default=1, help="matrix worker processes"
    )
    args = parser.parse_args()

    config = BENCH_TRACE_CONFIG
    if args.quick:
        config = EthereumTraceConfig(
            n_accounts=2_000,
            n_transactions=24_000,
            n_blocks=1_600,
            hub_fraction=0.01,
            hub_transaction_share=0.12,
            seed=BENCH_TRACE_CONFIG.seed,
        )
    trace_spec = TraceSpec(name="bench", config=config)
    output_dir = Path(__file__).parent / "output"
    output_dir.mkdir(exist_ok=True)

    def grid(name, methods, ks=(16,), etas=(2.0,), betas=(0.0,)):
        return ScenarioMatrix(
            name=name,
            methods=tuple(methods),
            traces=(trace_spec,),
            ks=ks,
            etas=etas,
            betas=betas,
            tau=BENCH_TAU,
            seed=BENCH_SEED,
        )

    # -- effectiveness sweeps (Tables I-III) -------------------------------
    # The eta sweep is the Table II-equivalent workload the perf snapshot
    # records; the k sweep supplies the remaining Table I-III rows.
    started = time.time()
    eta_sweep = run_matrix(
        grid("table2-throughput", METHODS, ks=(16,), etas=(2.0, 5.0, 10.0)),
        workers=args.workers,
        strict=True,
    )
    k_sweep = run_matrix(
        grid("k-sweep", METHODS, ks=(4, 32), etas=(2.0,)),
        workers=args.workers,
        strict=True,
    )
    summaries = eta_sweep.summaries + k_sweep.summaries
    print(f"effectiveness sweeps done in {time.time() - started:.0f}s")

    # The matrix-only snapshot always lands in output/: the tracked
    # repo-root BENCH_baseline.json carries the gate keys too and is
    # written by ``repro bench`` alone. --quick runs a shrunken trace,
    # so its timings are not comparable to the seed reference.
    if args.quick:
        reference = None
        notes = ["--quick run: shrunken trace, no seed reference"]
    else:
        reference = SEED_REFERENCE
        notes = [
            "Table II-equivalent workload: 4 methods x k=16 x eta in {2,5,10}",
            "sequential timings unless workers > 1; digest is worker-invariant",
        ]
    baseline_path = baseline_snapshot(
        eta_sweep,
        output_dir / "BENCH_baseline.json",
        reference=reference,
        notes=notes,
    )
    print(f"perf snapshot written to {baseline_path}")

    emit(
        output_dir,
        "table1_cross_shard",
        "Table I: cross-shard ratio",
        comparison_table(
            summaries,
            metric="mean_cross_shard_ratio",
            allocators=METHODS,
            row_settings=ROW_SETTINGS,
        ),
    )
    emit(
        output_dir,
        "table2_throughput",
        "Table II: normalised throughput (Lambda/lambda)",
        comparison_table(
            summaries,
            metric="mean_normalized_throughput",
            allocators=METHODS,
            row_settings=ROW_SETTINGS,
            value_format="{:.2f}",
            lower_is_better=False,
        ),
    )
    emit(
        output_dir,
        "table3_workload_deviation",
        "Table III: workload deviation",
        comparison_table(
            summaries,
            metric="mean_workload_deviation",
            allocators=METHODS,
            row_settings=ROW_SETTINGS,
            value_format="{:.2f}",
        ),
    )

    # -- Table IV: efficiency ----------------------------------------------
    adaptive = run_matrix(
        grid("efficiency", [TXALLO_ADAPTIVE]), workers=args.workers, strict=True
    )
    summaries += adaptive.summaries
    by_key = {(s["allocator"], s["k"], s["eta"]): s for s in summaries}
    rows = [
        [
            method,
            format_seconds(float(by_key[(method, 16, 2.0)]["mean_unit_time"])),
            format_bytes(float(by_key[(method, 16, 2.0)]["mean_input_bytes"])),
        ]
        for method in [PILOT, TXALLO_ADAPTIVE, TXALLO, METIS, RANDOM]
    ]
    emit(
        output_dir,
        "table4_efficiency",
        "Table IV: running time and input data size",
        render_table(["Method", "Time per decision unit", "Input data size"], rows),
    )

    # -- Table V: beta sweep -----------------------------------------------
    beta_sweep = run_matrix(
        grid("beta-sweep", [PILOT], ks=(4,), betas=BETAS),
        workers=args.workers,
        strict=True,
    )
    summaries += beta_sweep.summaries
    emit(
        output_dir,
        "table5_future_knowledge",
        "Table V: impact of future knowledge (k = 4, eta = 2)",
        beta_sweep_table(beta_sweep.summaries, allocator=PILOT),
    )

    # -- Table VI + Fig. 1 ---------------------------------------------------
    pilot = by_key[(PILOT, 16, 2.0)]
    epochs = max(1, int(pilot["epochs"]))
    model = OverheadModel(
        total_transactions=config.n_transactions,
        total_accounts=config.n_accounts,
        k=16,
        window_transactions=int(pilot["total_transactions"]) // epochs,
        committed_migrations=int(pilot["total_migrations"]),
        window_migrations=int(pilot["total_migrations"]) // epochs,
    )
    emit(
        output_dir,
        "table6_overhead",
        "Table VI (quantitative): per-miner overhead",
        overhead_table(model),
    )

    overheads = {
        PILOT: model.mosaic(),
        TXALLO: model.graph_based(),
        RANDOM: model.hash_based(),
    }
    axes = {}
    for method in (PILOT, TXALLO, RANDOM):
        summary = by_key[(method, 16, 2.0)]
        axes[method] = RadarAxes.from_measurements(
            unit_time=max(float(summary["mean_unit_time"]), 1e-12),
            storage_bytes=overheads[method].storage_bytes,
            communication_bytes=overheads[method].communication_bytes,
            normalized_throughput=float(summary["mean_normalized_throughput"]),
            cross_shard_ratio=float(summary["mean_cross_shard_ratio"]),
            workload_deviation=max(
                float(summary["mean_workload_deviation"]), 1e-12
            ),
        )
    scores = radar_scores(axes)
    emit(
        output_dir,
        "fig1_radar",
        "Figure 1: radar scores, normalised to [1, 5]",
        render_table(
            ["Dimension", PILOT, TXALLO, RANDOM],
            [
                [d] + [f"{scores[m][d]:.2f}" for m in (PILOT, TXALLO, RANDOM)]
                for d in RADAR_DIMENSIONS
            ],
        ),
    )

    (output_dir / "run_summaries.json").write_text(
        json.dumps(summaries, indent=2, sort_keys=True)
    )
    print(f"\nall artefacts written to {output_dir}/")


if __name__ == "__main__":
    main()
