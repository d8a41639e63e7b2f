"""Aggregation: matrix results into the paper-table and JSON formats.

The runner's summaries are already shaped like
``repro.sim.recorder.summarize_results`` output, so they feed straight
into ``repro.analysis.tables``; this module adds the glue (row settings
derived from the grid axes, and JSON persistence of a run).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.analysis.tables import comparison_table
from repro.experiments.matrix import ScenarioMatrix
from repro.experiments.runner import MatrixResult


def grid_row_settings(matrix: ScenarioMatrix) -> List[Dict[str, object]]:
    """One table row per (k, eta, beta, engine_mode) combination.

    Axes with a single value are folded out of the label (and, for the
    engine mode, out of the filter too), mirroring the paper's
    "k = 4", "eta = 5" row style.
    """
    rows: List[Dict[str, object]] = []
    for k in matrix.ks:
        for eta in matrix.etas:
            for beta in matrix.betas:
                for engine_mode in matrix.engine_modes:
                    label_parts = [f"k = {k}"]
                    if len(matrix.etas) > 1:
                        label_parts.append(f"eta = {eta:g}")
                    if len(matrix.betas) > 1:
                        label_parts.append(f"beta = {beta:g}")
                    row: Dict[str, object] = {
                        "k": k,
                        "eta": eta,
                        "beta": beta,
                    }
                    if len(matrix.engine_modes) > 1:
                        label_parts.append(engine_mode)
                        row["engine_mode"] = engine_mode
                    row["label"] = ", ".join(label_parts)
                    rows.append(row)
    return rows


def matrix_table(
    matrix: ScenarioMatrix,
    result: MatrixResult,
    metric: str = "mean_normalized_throughput",
    value_format: str = "{:.2f}",
    lower_is_better: bool = False,
) -> str:
    """Render a Tables I-III style comparison straight from a run."""
    return comparison_table(
        result.summaries,
        metric=metric,
        allocators=list(matrix.methods),
        row_settings=grid_row_settings(matrix),
        value_format=value_format,
        lower_is_better=lower_is_better,
    )


def write_result_json(
    result: MatrixResult, path: Union[str, Path]
) -> Path:
    """Persist a full matrix result (summaries, failures, digest)."""
    path = Path(path)
    payload = {
        "matrix": result.matrix_name,
        "workers": result.workers,
        "seconds": result.seconds,
        "digest": result.deterministic_digest(),
        "summaries": result.summaries,
        "failures": [
            {"cell": o.label, "error": o.error} for o in result.failures
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
