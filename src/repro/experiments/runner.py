"""The scenario-matrix runner: sequential or multiprocess, same bits.

``run_matrix`` executes every cell of a :class:`ScenarioMatrix` either
in-process (``workers <= 1``) or on a process pool. Because each cell
derives its RNG seed from its own label (see ``experiments/matrix.py``)
and traces are regenerated deterministically per process, the parallel
runner produces **bit-identical deterministic results** to the
sequential one — ``MatrixResult.deterministic_digest()`` is the
canonical witness, and the determinism test in
``tests/test_experiments.py`` asserts it.

Failure containment: a cell that raises — or a worker process that dies
outright — becomes a failed :class:`CellOutcome` carrying a clear error
naming the cell; every other cell's result is unaffected. ``strict=True``
upgrades any failure to :class:`ExperimentError` after the full sweep.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.data.trace import Trace
from repro.errors import ExperimentError
from repro.experiments.matrix import MatrixCell, ScenarioMatrix, TraceSpec
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.recorder import summarize_results

#: Summary keys that are wall-clock measurements, excluded from the
#: deterministic payload (they legitimately differ run to run).
TIMING_KEYS = ("mean_execution_time", "mean_unit_time")

#: Per-process trace cache: cells sharing a TraceSpec reuse the built
#: trace (generated or ETL-decoded) instead of rebuilding it per cell.
_TRACE_CACHE: Dict[TraceSpec, Trace] = {}

def _trace_for(spec: TraceSpec) -> Trace:
    trace = _TRACE_CACHE.get(spec)
    if trace is None:
        trace = spec.build()
        _TRACE_CACHE[spec] = trace
    return trace


def seed_trace_cache(spec: TraceSpec, trace: Trace) -> None:
    """Pre-populate this process's trace cache (benchmark fixtures)."""
    _TRACE_CACHE[spec] = trace


def run_cell(cell: MatrixCell) -> SimulationResult:
    """Run one cell to completion; return the full simulation result.

    This is the single execution path shared by the sequential runner,
    the process-pool workers and the benchmark suite's simulation cache.
    The cell's trace comes from this process's trace cache and streams
    through :class:`Simulation` as a materialised source, so cells
    sharing a spec generate or decode it once.
    """
    result = Simulation(
        _trace_for(cell.trace), cell.build_allocator(), cell.simulation_config()
    ).run()
    result.allocator_name = cell.method
    return result


def execute_cell(cell: MatrixCell) -> Dict[str, object]:
    """Run one cell and flatten it into its labelled summary dict."""
    summary = summarize_results(run_cell(cell))
    summary["cell"] = cell.label
    summary["trace"] = cell.trace.name
    summary["seed"] = cell.cell_seed
    summary["engine_mode"] = cell.engine_mode
    if cell.funding != "uniform":
        # Only non-default funding annotates the summary, so digests of
        # every pre-existing grid stay byte-identical.
        summary["funding"] = cell.funding
    return summary


@dataclass
class CellOutcome:
    """One cell's result: a summary on success, an error message on failure."""

    index: int
    label: str
    summary: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def deterministic_summary(self) -> Dict[str, object]:
        """The summary minus wall-clock fields (bit-comparable)."""
        if self.summary is None:
            return {"cell": self.label, "error": self.error}
        return {
            key: value
            for key, value in self.summary.items()
            if key not in TIMING_KEYS
        }


@dataclass
class MatrixResult:
    """All outcomes of one matrix run, in grid order."""

    matrix_name: str
    workers: int
    outcomes: List[CellOutcome] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def summaries(self) -> List[Dict[str, object]]:
        """Successful summaries in grid order (aggregation input)."""
        return [o.summary for o in self.outcomes if o.ok]

    @property
    def failures(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def deterministic_digest(self) -> str:
        """SHA-256 over the canonical deterministic payload.

        Identical for sequential and parallel runs of the same matrix;
        any numeric drift, reordering, or lost cell changes it.
        """
        payload = json.dumps(
            [o.deterministic_summary() for o in self.outcomes],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _execute_cell_guarded(index: int, cell: MatrixCell) -> CellOutcome:
    """Worker entry point: never raises, always returns an outcome."""
    started = time.perf_counter()
    try:
        summary = execute_cell(cell)
        return CellOutcome(
            index=index,
            label=cell.label,
            summary=summary,
            seconds=time.perf_counter() - started,
        )
    except Exception as error:  # noqa: BLE001 - contained by design
        tail = traceback.format_exc().strip().splitlines()[-1]
        return CellOutcome(
            index=index,
            label=cell.label,
            error=f"cell {cell.label!r} failed: {tail}",
            seconds=time.perf_counter() - started,
        )


def run_matrix(
    matrix: ScenarioMatrix,
    workers: int = 1,
    strict: bool = False,
) -> MatrixResult:
    """Execute every cell of ``matrix``; return outcomes in grid order.

    Args:
        matrix: the declarative grid to run.
        workers: ``<= 1`` runs sequentially in-process; otherwise a
            process pool of that size executes cells concurrently. The
            deterministic payload is bit-identical either way.
        strict: raise :class:`ExperimentError` after the sweep when any
            cell failed (the error lists every failed cell).
    """
    cells = matrix.cells()
    started = time.perf_counter()
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    if workers <= 1:
        for index, cell in enumerate(cells):
            outcomes[index] = _execute_cell_guarded(index, cell)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_execute_cell_guarded, index, cell): (index, cell)
                for index, cell in enumerate(cells)
            }
            for future, (index, cell) in futures.items():
                try:
                    outcomes[index] = future.result()
                except Exception as error:  # worker died outright
                    outcomes[index] = CellOutcome(
                        index=index,
                        label=cell.label,
                        error=(
                            f"cell {cell.label!r} worker crashed: "
                            f"{type(error).__name__}: {error}"
                        ),
                    )
    result = MatrixResult(
        matrix_name=matrix.name,
        workers=workers,
        outcomes=[o for o in outcomes if o is not None],
        seconds=time.perf_counter() - started,
    )
    if strict and result.failures:
        details = "; ".join(o.error or o.label for o in result.failures)
        raise ExperimentError(
            f"{len(result.failures)} of {len(cells)} cells failed: {details}"
        )
    return result
