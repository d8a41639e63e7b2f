"""Scenario-matrix experiments: declarative grids, one fast runner.

Public surface:

* :class:`~repro.experiments.matrix.ScenarioMatrix`,
  :class:`~repro.experiments.matrix.TraceSpec`,
  :class:`~repro.experiments.matrix.MatrixCell` — the declarative grid;
* :func:`~repro.experiments.runner.run_matrix`,
  :func:`~repro.experiments.runner.execute_cell` — execution
  (sequential or multiprocess, bit-identical);
* aggregation helpers rendering results in the ``analysis/tables``
  format and writing the ``BENCH_baseline.json`` snapshot;
* :func:`~repro.experiments.bench.run_bench` — the ``repro bench``
  snapshot: Table II cell timings and digest, the smoke grid, the
  Metis refine timing and the 1M-row windowed-vs-materialised memory
  pair. Per-layer timings of the whole epoch loop live in the
  end-to-end benchmark (``benchmarks/e2e/``).
"""

from repro.experiments.aggregate import (
    baseline_snapshot,
    grid_row_settings,
    matrix_table,
    write_result_json,
)
from repro.experiments.bench import (
    cell_delta_rows,
    delta_is_noise,
    memory_microbench,
    refine_microbench,
    run_bench,
    smoke_seconds,
    table2_matrix,
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
    "baseline_snapshot",
    "cell_delta_rows",
    "default_trace",
    "execute_cell",
    "delta_is_noise",
    "grid_row_settings",
    "matrix_table",
    "memory_microbench",
    "preset_matrix",
    "refine_microbench",
    "run_bench",
    "run_cell",
    "run_matrix",
    "seed_trace_cache",
    "smoke_seconds",
    "table2_matrix",
    "with_trace_source",
    "write_result_json",
]
