"""Markdown report generation from recorded simulation results.

Turns summary dicts (:func:`repro.sim.recorder.summarize_results`)
into a self-contained Markdown report: one section per
experiment, one metrics table per section, plus a header describing the
configuration. ``repro compare --report`` writes one for a scenario
preset.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ValidationError
from repro.util.formatting import format_bytes, format_seconds

Summary = Mapping[str, object]

#: Metric columns rendered for every run, in order: (key, header, format).
_METRIC_COLUMNS = (
    ("mean_cross_shard_ratio", "Cross-shard", "{:.2%}"),
    ("mean_normalized_throughput", "Throughput", "{:.2f}"),
    ("mean_workload_deviation", "Workload dev.", "{:.2f}"),
    ("total_migrations", "Migrations", "{}"),
)


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise ValidationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _setting_label(summary: Summary) -> str:
    parts = [f"k={summary.get('k')}", f"eta={summary.get('eta')}"]
    beta = summary.get("beta")
    if beta not in (None, 0, 0.0):
        parts.append(f"beta={beta}")
    scenario = summary.get("scenario")
    if scenario:
        parts.insert(0, str(scenario))
    return ", ".join(parts)


def render_experiment_section(
    title: str, summaries: Sequence[Summary]
) -> str:
    """One Markdown section: a metrics table over all given runs."""
    if not summaries:
        raise ValidationError(f"experiment {title!r} has no recorded runs")
    headers = ["Method", "Setting"] + [h for _, h, _ in _METRIC_COLUMNS] + [
        "Time/decision",
        "Input",
    ]
    rows: List[List[str]] = []
    for summary in summaries:
        row = [str(summary.get("allocator", "?")), _setting_label(summary)]
        for key, _header, fmt in _METRIC_COLUMNS:
            value = summary.get(key)
            row.append(fmt.format(value) if value is not None else "-")
        unit_time = summary.get("mean_unit_time")
        row.append(
            format_seconds(float(unit_time)) if unit_time is not None else "-"
        )
        input_bytes = summary.get("mean_input_bytes")
        row.append(
            format_bytes(float(input_bytes)) if input_bytes is not None else "-"
        )
        rows.append(row)
    return f"## {title}\n\n{_markdown_table(headers, rows)}\n"


def render_report(
    summaries: Sequence[Summary],
    title: str = "Simulation report",
    preamble: Optional[str] = None,
) -> str:
    """Render a full Markdown report, grouped by experiment label."""
    if not summaries:
        raise ValidationError("no summaries to report")
    grouped: Dict[str, List[Summary]] = {}
    for summary in summaries:
        experiment = str(summary.get("experiment", "runs"))
        grouped.setdefault(experiment, []).append(summary)

    sections = [f"# {title}\n"]
    if preamble:
        sections.append(preamble.rstrip() + "\n")
    for experiment in sorted(grouped):
        sections.append(render_experiment_section(experiment, grouped[experiment]))
    return "\n".join(sections)


def write_report(
    summaries: Sequence[Summary],
    path: Union[str, Path],
    title: str = "Simulation report",
    preamble: Optional[str] = None,
) -> Path:
    """Render and write the report; return the path."""
    path = Path(path)
    path.write_text(render_report(summaries, title=title, preamble=preamble))
    return path
