"""The performance snapshot: Table II workload, scale checks, and gate.

This module owns everything around ``BENCH_baseline.json``:

* :func:`table2_matrix` — the canonical Table II-equivalent grid
  (4 methods x k = 16 x eta in {2, 5, 10} over the shared benchmark
  trace) whose wall time the snapshot records;
* :func:`memory_microbench` — the 1M-row windowed-vs-materialised
  peak-memory pair, the one scale check the end-to-end benchmark
  (``benchmarks/e2e/``, at most 50k accounts) cannot reach;
* :func:`refine_microbench` — one full Metis partition of the
  benchmark account graph;
* :func:`run_bench` — regenerate the snapshot (the ``repro bench``
  subcommand), preserving the previous snapshot as the reference so
  the speedup series stays comparable across PRs. The CI perf smoke
  gate (``tests/test_perf_gate.py``) compares fresh timings against it.

Per-layer timings of the whole epoch loop (executor, message bus,
beacon commit, state movement, CSV decode) live in the end-to-end
benchmark, not here.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.errors import ExperimentError
from repro.experiments.aggregate import baseline_snapshot
from repro.experiments.matrix import ScenarioMatrix, TraceSpec
from repro.experiments.runner import run_matrix, seed_trace_cache

#: The benchmark trace shared with ``benchmarks/conftest.py``.
BENCH_TRACE_CONFIG = EthereumTraceConfig(
    n_accounts=6_000,
    n_transactions=80_000,
    n_blocks=4_000,
    hub_fraction=0.01,
    hub_transaction_share=0.12,
    seed=42,
)
BENCH_TRACE_SPEC = TraceSpec(name="bench", config=BENCH_TRACE_CONFIG)


def table2_matrix() -> ScenarioMatrix:
    """The Table II-equivalent workload tracked in ``BENCH_baseline.json``."""
    return ScenarioMatrix(
        name="table2-throughput",
        methods=("hash-random", "metis", "mosaic-pilot", "txallo"),
        traces=(BENCH_TRACE_SPEC,),
        ks=(16,),
        etas=(2.0, 5.0, 10.0),
        betas=(0.0,),
        tau=40,
        seed=42,
    )


def delta_is_noise(
    delta: Optional[float], spread: Optional[float]
) -> bool:
    """True when a cell's delta sits within its recorded run-to-run spread.

    The automatic twin of PR 4's manual "metis cells jitter ±17% under
    scheduler noise" snapshot comment: ``repro bench`` marks any delta
    whose magnitude does not exceed the cell's own (max-min)/median
    spread as "within noise" instead of presenting it as a real
    speedup or regression. Cells without a delta or a recorded spread
    are never flagged.
    """
    if delta is None or spread is None:
        return False
    return abs(delta) <= spread


def _valued_extract(n_rows: int) -> Path:
    """Write (or reuse) the benchmark's valued ``n_rows`` CSV extract.

    Sized from the row count so the file carries real value/fee columns
    like the ethereum-etl extracts the streamed engine targets. The
    file is cached in the system temp dir under a config-keyed name:
    keyed on the generating config, not just the row count, so a stale
    file from another code version (different schema or value model) is
    never silently reused.
    """
    import hashlib
    import tempfile

    from repro.data.etl import write_transactions_csv
    from repro.data.generators import ValueModelConfig

    config = EthereumTraceConfig(
        n_transactions=n_rows,
        n_accounts=max(10, n_rows // 10),
        n_blocks=max(1, n_rows // 50),
        hub_fraction=0.005,
        hub_transaction_share=0.15,
        seed=7,
        value_model=ValueModelConfig(fee_fraction=0.01),
    )
    config_key = hashlib.sha256(repr(config).encode()).hexdigest()[:12]
    path = (
        Path(tempfile.gettempdir())
        / f"repro_bench_extract_{n_rows}_{config_key}.csv"
    )
    if not path.exists():
        write_transactions_csv(path, generate_ethereum_like_trace(config))
    return path


def _memory_run(
    n_rows: int,
    mode: str,
    chunk_rows: int = 65_536,
    history_epochs: int = 4,
) -> Callable[[], None]:
    """The memory bench's measured step: a metrics run over ``n_rows``.

    Both modes run the same hash-random metrics :class:`Simulation`
    over the benchmark's valued CSV extract; they differ only in the
    source the engine streams from:

    * ``mode="windowed"`` streams the chunked
      :class:`~repro.data.source.CsvTraceSource` — the engine holds the
      ``history_epochs`` prefix plus a two-epoch window, so the peak is
      O(window + accounts), independent of the total row count;
    * ``mode="materialised"`` first decodes the whole file into a
      :class:`Trace` and streams that — O(total rows).

    The extract is written (or reused) before the step is returned, so
    input generation never sets the step's peak.
    """
    from repro.allocation.hash_based import HashAllocator
    from repro.chain.params import ProtocolParams
    from repro.data.source import CsvTraceSource
    from repro.sim.engine import Simulation, SimulationConfig

    if mode not in ("windowed", "materialised"):
        raise ExperimentError(
            f"mode must be 'windowed' or 'materialised', got {mode!r}"
        )
    csv_path = _valued_extract(n_rows)
    # tau sized for ~40 evaluation epochs at any row count, so the
    # window the streaming engine holds shrinks relative to the file as
    # n_rows grows — exactly the regime the O(window) claim is about.
    n_blocks = max(1, n_rows // 50)
    tau = max(1, n_blocks // 40)
    config = SimulationConfig(
        params=ProtocolParams(k=8, tau=tau, seed=7),
        history_epochs=history_epochs,
    )
    source = CsvTraceSource(csv_path, chunk_rows=chunk_rows)

    def run() -> None:
        data = source if mode == "windowed" else source.materialise()
        Simulation(data, HashAllocator(), config).run()

    return run


def memory_microbench(
    n_rows: int = 1_000_000,
    mode: str = "windowed",
    chunk_rows: int = 65_536,
    history_epochs: int = 4,
) -> float:
    """Peak traced allocation (MB) of the memory bench's step.

    Runs :func:`_memory_run`'s step for ``mode`` under tracemalloc. The
    pair feeds the snapshot's ``peak_rss_mb_{windowed,materialised}_1m``
    entries. Peaks are traced *allocations* (tracemalloc), not process
    RSS — a stable, interpreter-independent proxy for the same
    quantity.
    """
    import tracemalloc

    run = _memory_run(n_rows, mode, chunk_rows, history_epochs)
    tracemalloc.start()
    try:
        run()
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak_bytes / (1024 * 1024)


def refine_microbench(
    repeats: int = 3,
    k: int = 16,
    seed: int = 42,
) -> float:
    """Median wall seconds for one full multilevel partition of the
    benchmark account graph.

    Builds the accumulated account graph of the benchmark trace
    (untimed — the same graph the ``metis/bench`` matrix cells
    repartition every epoch), runs one untimed warmup call, then times
    ``repeats`` :func:`partition_graph` calls and reports the median.
    Feeds the snapshot's ``refine_seconds_python`` entry and the CI
    gate.
    """
    from repro.allocation.graph import TransactionGraph
    from repro.allocation.metis_like import partition_graph

    trace = generate_ethereum_like_trace(BENCH_TRACE_CONFIG)
    graph = TransactionGraph.from_batch(
        trace.batch, n_accounts=trace.n_accounts
    )
    partition_graph(graph, k, seed=seed)
    timings = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        partition_graph(graph, k, seed=seed)
        timings.append(time.perf_counter() - started)
    return median(timings)


def cell_delta_rows(
    payload: Dict[str, object]
) -> List[
    Tuple[
        str,
        Optional[float],
        float,
        Optional[float],
        Optional[float],
        Optional[float],
    ]
]:
    """Per-cell ``(label, reference_s, measured_s, delta, spread, peak_mb)``.

    Pairs a snapshot's ``cell_seconds`` with its ``reference.cells`` so
    ``repro bench`` can print where a speedup or regression actually
    lives instead of one opaque total. Cells without a reference timing
    carry ``None`` for the reference and delta; ``spread`` is the cell's
    (max - min) / median across the snapshot's timing repeats (``None``
    for single-repeat snapshots), so a delta can be read against the
    cell's own run-to-run noise; ``peak_mb`` is the cell's peak traced
    allocation from the snapshot's ``cell_peak_mb`` (``None`` for
    snapshots that predate memory tracking).
    """
    cells = payload.get("cell_seconds") or {}
    reference = payload.get("reference") or {}
    ref_cells = reference.get("cells") if isinstance(reference, dict) else {}
    if not isinstance(ref_cells, dict):
        ref_cells = {}
    spreads = payload.get("cell_spread") or {}
    if not isinstance(spreads, dict):
        spreads = {}
    peaks = payload.get("cell_peak_mb") or {}
    if not isinstance(peaks, dict):
        peaks = {}
    rows: List[
        Tuple[
            str,
            Optional[float],
            float,
            Optional[float],
            Optional[float],
            Optional[float],
        ]
    ] = []
    for label in sorted(cells):
        measured = float(cells[label])
        spread = spreads.get(label)
        spread = float(spread) if isinstance(spread, (int, float)) else None
        peak = peaks.get(label)
        peak = float(peak) if isinstance(peak, (int, float)) else None
        ref = ref_cells.get(label)
        if isinstance(ref, (int, float)) and ref > 0:
            delta = (measured - float(ref)) / float(ref)
            rows.append((label, float(ref), measured, delta, spread, peak))
        else:
            rows.append((label, None, measured, None, spread, peak))
    return rows


def smoke_seconds(workers: int = 1, repeats: int = 1) -> float:
    """Wall seconds of the CI smoke grid (``repro matrix --preset smoke``).

    ``repeats > 1`` reruns the grid and reports the median wall time,
    which is what the snapshot records and the perf gate measures —
    scheduler noise on a loaded CI host lands in the tails, and the
    median keeps the gate margin meaningful.
    """
    from repro.experiments.matrix import preset_matrix

    matrix = preset_matrix("smoke")
    timings = []
    for _ in range(max(1, repeats)):
        result = run_matrix(matrix, workers=workers, strict=True)
        timings.append(result.seconds)
    return median(timings)


#: Timing repeats per matrix cell in ``run_bench``: the snapshot
#: records per-cell medians (and spreads) over this many full matrix
#: runs, so a single descheduled run cannot skew the committed numbers.
BENCH_REPEATS = 3


def run_bench(
    path: Union[str, Path] = "BENCH_baseline.json",
    workers: int = 1,
    notes: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Regenerate the performance snapshot (``repro bench``).

    The trace is generated (untimed) and seeded into the runner's cache
    first, so cell timings measure simulation work, not trace synthesis
    — the same methodology as the benchmark suite. The matrix runs
    :data:`BENCH_REPEATS` times; every repeat must produce the same
    deterministic digest, per-cell timings are medians across repeats
    and ``cell_spread`` records each cell's (max - min) / median. The
    previous snapshot's totals become the new snapshot's ``reference``,
    keeping a chained speedup series across PRs.
    """
    path = Path(path)
    reference: Optional[Dict[str, object]] = None
    if path.exists():
        previous = json.loads(path.read_text())
        reference = {
            "cells": previous.get("cell_seconds", {}),
            "total_seconds": previous.get("total_seconds"),
            "revision": previous.get(
                "revision",
                f"snapshot of {previous.get('recorded_at', 'unknown')}",
            ),
        }

    seed_trace_cache(
        BENCH_TRACE_SPEC, generate_ethereum_like_trace(BENCH_TRACE_CONFIG)
    )
    matrix = table2_matrix()
    repeats = [
        run_matrix(matrix, workers=workers) for _ in range(BENCH_REPEATS)
    ]
    result = repeats[0]
    digests = {r.deterministic_digest() for r in repeats}
    if len(digests) != 1:
        raise ExperimentError(
            f"benchmark matrix is not deterministic across repeats: {digests}"
        )
    cell_runs: Dict[str, List[float]] = {}
    for run in repeats:
        for outcome in run.outcomes:
            if outcome.ok:
                cell_runs.setdefault(outcome.label, []).append(
                    outcome.seconds
                )
    cell_seconds = {
        label: median(timings) for label, timings in cell_runs.items()
    }
    cell_spread = {
        label: (max(timings) - min(timings)) / median(timings)
        if median(timings) > 0
        else 0.0
        for label, timings in cell_runs.items()
    }
    total_seconds = sum(cell_seconds.values())
    refine_python = refine_microbench()
    smoke = smoke_seconds(repeats=BENCH_REPEATS)
    # One extra matrix pass with memory tracking, outside the timing
    # repeats: tracemalloc slows cells noticeably, so peaks must never
    # share a run with the recorded timings. The digest check proves
    # tracking didn't perturb the results.
    memory_run = run_matrix(matrix, workers=workers, track_memory=True)
    if memory_run.deterministic_digest() != next(iter(digests)):
        raise ExperimentError(
            "memory-tracked matrix run diverged from the timed runs"
        )
    cell_peak_mb = {
        outcome.label: outcome.peak_mb
        for outcome in memory_run.outcomes
        if outcome.ok and outcome.peak_mb is not None
    }
    peak_windowed_1m = memory_microbench(mode="windowed")
    peak_materialised_1m = memory_microbench(mode="materialised")

    all_notes = [
        "Table II-equivalent workload: 4 methods x k=16 x eta in {2,5,10}",
        "sequential timings unless workers > 1; digest is worker-invariant",
        f"cell_seconds are medians over {BENCH_REPEATS} full matrix runs; "
        "cell_spread is each cell's (max-min)/median across the repeats",
        "refine_seconds_python: one full multilevel partition of the "
        "benchmark account graph (median of 3)",
        f"smoke_seconds: the 2x2 CI smoke grid (median of {BENCH_REPEATS})",
        "cell_peak_mb: per-cell peak traced allocation (MB), measured on "
        "one extra untimed matrix pass so tracemalloc never skews the "
        "recorded timings",
        "peak_rss_mb_{windowed,materialised}_1m: peak traced MB for a "
        "hash-random metrics run over the 1M-row valued extract — "
        "Simulation streaming the chunked CsvTraceSource vs the same "
        "Simulation over the fully materialised Trace",
    ]
    if notes:
        all_notes.extend(notes)
    baseline_snapshot(result, path, reference=reference, notes=all_notes)
    payload = json.loads(path.read_text())
    # Swap the single-run matrix timings for the medians across repeats
    # and recompute the derived entries from them.
    payload["cell_seconds"] = {
        label: round(seconds, 3) for label, seconds in cell_seconds.items()
    }
    payload["cell_spread"] = {
        label: round(spread, 3) for label, spread in cell_spread.items()
    }
    payload["total_seconds"] = round(total_seconds, 3)
    payload["timing_repeats"] = BENCH_REPEATS
    if reference is not None:
        ref_total = reference.get("total_seconds")
        if isinstance(ref_total, (int, float)) and total_seconds > 0:
            payload["speedup_vs_reference"] = round(
                float(ref_total) / total_seconds, 2
            )
    payload["refine_seconds_python"] = round(refine_python, 3)
    payload["smoke_seconds"] = round(smoke, 3)
    payload["cell_peak_mb"] = {
        label: round(peak, 1) for label, peak in cell_peak_mb.items()
    }
    payload["peak_rss_mb_windowed_1m"] = round(peak_windowed_1m, 1)
    payload["peak_rss_mb_materialised_1m"] = round(peak_materialised_1m, 1)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return payload

