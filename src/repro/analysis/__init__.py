"""Result analysis: paper-style tables and the Fig. 1 radar chart.

* :mod:`repro.analysis.tables` — Tables I-III, V and VI renderers;
* :mod:`repro.analysis.radar` — the Fig. 1 radar scores;
* :mod:`repro.analysis.report` — the markdown experiment report.
"""

from repro.analysis.tables import (
    comparison_table,
    beta_sweep_table,
    overhead_table,
)
from repro.analysis.radar import RadarAxes, radar_scores, RADAR_DIMENSIONS
from repro.analysis.report import (
    render_experiment_section,
    render_report,
    write_report,
)

__all__ = [
    "comparison_table",
    "beta_sweep_table",
    "overhead_table",
    "RadarAxes",
    "radar_scores",
    "RADAR_DIMENSIONS",
    "render_experiment_section",
    "render_report",
    "write_report",
]
