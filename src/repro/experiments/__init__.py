"""Scenario-matrix experiments: declarative grids, one fast runner.

Public surface:

* :class:`~repro.experiments.matrix.ScenarioMatrix`,
  :class:`~repro.experiments.matrix.TraceSpec`,
  :class:`~repro.experiments.matrix.MatrixCell` — the declarative grid;
* :func:`~repro.experiments.runner.run_matrix`,
  :func:`~repro.experiments.runner.execute_cell` — execution
  (sequential or multiprocess, bit-identical);
* aggregation helpers rendering results in the ``analysis/tables``
  format and writing a run's JSON.

Performance is measured end to end by ``benchmarks/e2e/``, which
imports only :data:`ALLOCATOR_BUILDERS` from here.
"""

from repro.experiments.aggregate import (
    grid_row_settings,
    matrix_table,
    write_result_json,
)
from repro.experiments.matrix import (
    ALLOCATOR_BUILDERS,
    ENGINE_MODES,
    PRESETS,
    MatrixCell,
    ScenarioMatrix,
    TraceSpec,
    default_trace,
    preset_matrix,
    with_trace_source,
)
from repro.experiments.runner import (
    CellOutcome,
    MatrixResult,
    execute_cell,
    run_cell,
    run_matrix,
    seed_trace_cache,
)

__all__ = [
    "ALLOCATOR_BUILDERS",
    "ENGINE_MODES",
    "PRESETS",
    "CellOutcome",
    "MatrixCell",
    "MatrixResult",
    "ScenarioMatrix",
    "TraceSpec",
    "default_trace",
    "execute_cell",
    "grid_row_settings",
    "matrix_table",
    "preset_matrix",
    "run_cell",
    "run_matrix",
    "seed_trace_cache",
    "with_trace_source",
    "write_result_json",
]
