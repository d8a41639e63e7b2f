"""Renderers producing the paper's tables from recorded simulation runs.

Each function takes summaries produced by
:func:`repro.sim.recorder.summarize_results` and prints rows shaped like
the corresponding table in the paper (one row per parameter setting, one
column per method).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.chain.network import OverheadModel
from repro.util.formatting import format_bytes, render_table

Summary = Mapping[str, object]


def _find(
    summaries: Sequence[Summary], allocator: str, **filters: object
) -> Optional[Summary]:
    for summary in summaries:
        if summary.get("allocator") != allocator:
            continue
        if all(summary.get(key) == value for key, value in filters.items()):
            return summary
    return None


def comparison_table(
    summaries: Sequence[Summary],
    metric: str,
    allocators: Sequence[str],
    row_settings: Sequence[Dict[str, object]],
    value_format: str = "{:.2%}",
    lower_is_better: bool = True,
) -> str:
    """Render a Table I/II/III-style comparison.

    Args:
        summaries: recorded run summaries.
        metric: summary key to display (e.g. ``mean_cross_shard_ratio``).
        allocators: column order (method names).
        row_settings: one dict of parameter filters per row, e.g.
            ``{"k": 4, "eta": 2.0}``; a ``label`` key overrides the
            rendered row label.
        value_format: format string for the metric value.
        lower_is_better: marks the best value per row with ``*``.
    """
    headers = ["Parameters"] + list(allocators)
    rows: List[List[str]] = []
    for setting in row_settings:
        setting = dict(setting)
        label = str(setting.pop("label", setting))
        values: List[Optional[float]] = []
        for allocator in allocators:
            summary = _find(summaries, allocator, **setting)
            # A run that does not carry the metric (e.g. an executed-
            # value metric asked of a metrics-only cell) renders "-".
            if summary is None or metric not in summary:
                values.append(None)
            else:
                values.append(float(summary[metric]))
        present = [v for v in values if v is not None]
        best = (min(present) if lower_is_better else max(present)) if present else None
        cells = [label]
        for value in values:
            if value is None:
                cells.append("-")
                continue
            text = value_format.format(value)
            if best is not None and value == best:
                text += " *"
            cells.append(text)
        rows.append(cells)
    return render_table(headers, rows)


def beta_sweep_table(summaries: Sequence[Summary], allocator: str) -> str:
    """Render Table V: metrics across ``beta`` for one allocator."""
    headers = ["beta", "Cross-shard ratio", "Throughput", "Workload dev."]
    picked = sorted(
        (s for s in summaries if s.get("allocator") == allocator),
        key=lambda s: float(s["beta"]),  # type: ignore[arg-type]
    )
    rows = [
        [
            f"{float(s['beta']):.2f}",
            f"{float(s['mean_cross_shard_ratio']):.2%}",
            f"{float(s['mean_normalized_throughput']):.2f}",
            f"{float(s['mean_workload_deviation']):.2f}",
        ]
        for s in picked
    ]
    return render_table(headers, rows)


def overhead_table(model: OverheadModel) -> str:
    """Render the quantitative half of Table VI from the overhead model."""
    estimates = model.all_frameworks()
    headers = [
        "Framework",
        "Replication storage",
        "Replication comm.",
        "Computation input",
    ]
    rows = [
        [
            name,
            format_bytes(est.storage_bytes),
            format_bytes(est.communication_bytes),
            format_bytes(est.computation_input_bytes),
        ]
        for name, est in estimates.items()
    ]
    return render_table(headers, rows)
