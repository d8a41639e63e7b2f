"""CI perf smoke gate: catch order-of-magnitude performance regressions.

The gate runs the ``repro matrix --preset smoke`` grid plus the columnar
executor microbenchmark (scaled down for CI) and fails when wall time
regresses more than 3x against the committed ``BENCH_baseline.json``
snapshot. 3x is far above normal machine jitter but well below the
slowdowns that accidental de-vectorisation (object churn, per-transfer
Python loops) causes, which are the regressions this gate exists to
catch. Regenerate the snapshot with ``python -m repro bench`` after an
intentional performance change.
"""

import json
from pathlib import Path

import pytest

from repro.allocation.metis_like.kernels import NUMBA_AVAILABLE
from repro.data.arrow import PYARROW_AVAILABLE
from repro.errors import ExperimentError
from repro.experiments import check_against_baseline, executor_microbench
from repro.experiments.bench import (
    ingest_microbench,
    load_baseline,
    memory_microbench,
    netsim_microbench,
    reconfig_microbench,
    refine_microbench,
    smoke_seconds,
)

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"

#: CI-sized microbench: same kernel path as the snapshot's
#: ``kernel_seconds`` workload at 1/10 of the transfer count.
MICROBENCH_SCALE = 0.1

#: CI-sized reconfiguration bench: the snapshot's 1M-account full
#: repartition at 1/10 of the universe.
RECONFIG_SCALE = 0.1

#: CI-sized ingest bench: the snapshot's 1M-row CSV decode at 1/10
#: of the row count.
INGEST_SCALE = 0.1

#: CI-sized memory bench: the snapshot's 1M-row windowed-vs-materialised
#: comparison at 400k rows — large enough that the O(total-rows)
#: materialised peak clearly dominates the windowed engine's
#: O(window + accounts) floor (at 100-200k rows fixed overheads still
#: mask the gap), small enough for a CI lane.
MEMORY_SCALE = 0.4


class TestGateLogic:
    def test_passes_within_threshold(self):
        baseline = {"smoke_seconds": 1.0, "kernel_seconds": 2.0}
        measured = {"smoke_seconds": 2.5, "kernel_seconds": 1.0}
        assert check_against_baseline(measured, baseline) == []

    def test_flags_regression(self):
        baseline = {"smoke_seconds": 1.0}
        violations = check_against_baseline(
            {"smoke_seconds": 3.5}, baseline, threshold=3.0
        )
        assert len(violations) == 1
        assert "smoke_seconds" in violations[0]

    def test_missing_keys_are_skipped(self):
        assert check_against_baseline({"kernel_seconds": 99.0}, {}) == []

    def test_threshold_must_leave_headroom(self):
        with pytest.raises(ExperimentError):
            check_against_baseline({}, {}, threshold=1.0)

    def test_delta_within_spread_is_noise(self):
        from repro.experiments.bench import delta_is_noise

        assert delta_is_noise(0.12, 0.17)
        assert delta_is_noise(-0.17, 0.17)
        assert not delta_is_noise(0.25, 0.17)
        assert not delta_is_noise(-0.2, 0.05)

    def test_delta_noise_requires_both_measurements(self):
        from repro.experiments.bench import delta_is_noise

        assert not delta_is_noise(None, 0.2)
        assert not delta_is_noise(0.1, None)
        assert not delta_is_noise(None, None)


class TestCommittedSnapshot:
    def test_snapshot_exists_and_carries_gate_keys(self):
        baseline = load_baseline(BASELINE_PATH)
        assert baseline.get("matrix") == "table2-throughput"
        for key in ("total_seconds", "smoke_seconds", "kernel_seconds"):
            assert isinstance(baseline.get(key), (int, float)), key

    def test_snapshot_is_valid_json_with_cells(self):
        payload = json.loads(BASELINE_PATH.read_text())
        assert payload["cell_seconds"], "snapshot must carry per-cell timings"

    def test_snapshot_jit_refine_holds_5x_over_python(self):
        """The jitted commit kernels must stay >= 5x faster than the
        reference loops on the benchmark partition (recorded only when
        the snapshot was taken with numba installed)."""
        baseline = load_baseline(BASELINE_PATH)
        refine_python = baseline.get("refine_seconds_python")
        refine_jit = baseline.get("refine_seconds_jit")
        if refine_python is None or refine_jit is None:
            pytest.skip("snapshot predates (or lacks numba for) the "
                        "refine entries")
        assert isinstance(refine_python, (int, float)) and refine_python > 0
        assert isinstance(refine_jit, (int, float)) and refine_jit > 0
        assert 5.0 * refine_jit <= refine_python, (
            f"jitted refine ({refine_jit}s) lost its 5x margin over the "
            f"python loops ({refine_python}s)"
        )

    def test_snapshot_windowed_memory_within_budget_and_sublinear(self):
        """The 1M-row windowed run must stay in its memory budget.

        Two claims: the windowed engine's peak is bounded (128 MB is
        ~4x the recorded value, absorbing allocator drift), and it is
        clearly sublinear against the materialised twin — at 1M rows
        the full-trace peak must cost at least 1.6x the windowed one.
        """
        baseline = load_baseline(BASELINE_PATH)
        windowed = baseline.get("peak_rss_mb_windowed_1m")
        materialised = baseline.get("peak_rss_mb_materialised_1m")
        if windowed is None or materialised is None:
            pytest.skip("snapshot predates the memory entries")
        assert isinstance(windowed, (int, float)) and windowed > 0
        assert isinstance(materialised, (int, float)) and materialised > 0
        assert windowed <= 128, (
            f"1M-row windowed peak ({windowed}MB) blew the 128MB budget"
        )
        assert 1.6 * windowed <= materialised, (
            f"windowed peak ({windowed}MB) is not sublinear vs the "
            f"materialised run ({materialised}MB) at 1M rows"
        )

    def test_snapshot_ideal_bus_within_1_1x_of_direct(self):
        """The ideal null network model must stay effectively free: the
        recorded executor workload through the ideal bus may cost at
        most 1.1x the direct (``network=None``) path. The null model is
        counters only — no event heap, no RNG — so anything past 10%
        means dispatch overhead leaked into the hot path."""
        baseline = load_baseline(BASELINE_PATH)
        overhead = baseline.get("netsim_overhead_ideal")
        if overhead is None:
            pytest.skip("snapshot predates the netsim entries")
        assert isinstance(overhead, (int, float)) and overhead > 0
        assert overhead <= 1.1, (
            f"ideal-bus overhead ({overhead}x) blew the 1.1x budget "
            f"over the direct executor path"
        )

    def test_snapshot_arrow_ingest_holds_3x_over_streamed(self):
        """The arrow columnar decode must stay >= 3x faster than the
        python streamed path at 1M rows (recorded only when the
        snapshot was taken with pyarrow installed)."""
        baseline = load_baseline(BASELINE_PATH)
        streamed_1m = baseline.get("ingest_seconds_streamed_1m")
        arrow_1m = baseline.get("ingest_seconds_arrow_1m")
        if streamed_1m is None or arrow_1m is None:
            pytest.skip("snapshot predates (or lacks pyarrow for) the "
                        "arrow ingest entry")
        assert isinstance(streamed_1m, (int, float)) and streamed_1m > 0
        assert isinstance(arrow_1m, (int, float)) and arrow_1m > 0
        assert 3.0 * arrow_1m <= streamed_1m, (
            f"arrow 1M ingest ({arrow_1m}s) lost its 3x margin over the "
            f"python streamed path ({streamed_1m}s)"
        )


class TestPerfSmokeGate:
    """The actual gate — runs the smoke grid + scaled microbench."""

    def test_smoke_grid_within_3x_of_snapshot(self):
        # Median of 3, like the snapshot records: a single descheduled
        # run on a loaded CI host must not flap the gate.
        baseline = load_baseline(BASELINE_PATH)
        measured = {"smoke_seconds": smoke_seconds(repeats=3)}
        violations = check_against_baseline(measured, baseline, threshold=3.0)
        assert not violations, "; ".join(violations)

    def test_python_refine_within_3x_of_snapshot(self):
        baseline = load_baseline(BASELINE_PATH)
        if baseline.get("refine_seconds_python") is None:
            pytest.skip("snapshot predates the refine entries")
        measured = {
            "refine_seconds_python": refine_microbench(compiled=False)
        }
        violations = check_against_baseline(measured, baseline, threshold=3.0)
        assert not violations, "; ".join(violations)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_live_jit_refine_holds_3x_over_python(self):
        """With numba present, the kernels must actually be fast.

        The committed snapshot enforces the full 5x margin on the
        recording machine; live CI uses 3x so the gate holds across
        slower runners without flapping.
        """
        refine_python = refine_microbench(compiled=False)
        refine_jit = refine_microbench(compiled=True)
        assert 3.0 * refine_jit <= refine_python, (
            f"jitted refine ({refine_jit:.3f}s) is not >= 3x faster than "
            f"the python loops ({refine_python:.3f}s)"
        )

    @pytest.mark.skipif(not PYARROW_AVAILABLE, reason="pyarrow not installed")
    def test_live_arrow_ingest_holds_2x_over_streamed(self, tmp_path):
        """With pyarrow present, the columnar decode must actually be
        fast — 2x at 1/10 scale (fixed per-file overhead weighs heavier
        on 100k rows than on the snapshot's 1M)."""
        path = tmp_path / "ingest_arrow_gate.csv"
        streamed = ingest_microbench(
            n_rows=int(1_000_000 * INGEST_SCALE), mode="streamed", path=path
        )
        arrow = ingest_microbench(
            n_rows=int(1_000_000 * INGEST_SCALE), mode="arrow", path=path
        )
        assert 2.0 * arrow <= streamed, (
            f"arrow ingest ({arrow:.3f}s) is not >= 2x faster than the "
            f"python streamed path ({streamed:.3f}s) at 100k rows"
        )

    def test_executor_kernel_within_3x_of_snapshot(self):
        baseline = load_baseline(BASELINE_PATH)
        reference = baseline.get("kernel_seconds")
        if not isinstance(reference, (int, float)):
            pytest.skip("snapshot predates kernel_seconds")
        seconds = executor_microbench(
            n_accounts=10_000,
            n_transfers=int(200_000 * MICROBENCH_SCALE),
            n_blocks=10,
        )
        # The CI workload is ~1/10 of the snapshot's; compare against
        # the proportionally scaled reference.
        measured = {"kernel_seconds": seconds / MICROBENCH_SCALE}
        violations = check_against_baseline(measured, baseline, threshold=3.0)
        assert not violations, "; ".join(violations)

    def test_dense_backend_1m_within_3x_of_snapshot(self):
        baseline = load_baseline(BASELINE_PATH)
        if baseline.get("kernel_seconds_dense_1m") is None:
            pytest.skip("snapshot predates the 1M-account entry")
        # Best of two, like the snapshot: the first run pays one-off
        # page faults for the preallocated dense state columns.
        seconds = min(
            executor_microbench(n_accounts=1_000_000) for _ in range(2)
        )
        measured = {"kernel_seconds_dense_1m": seconds}
        violations = check_against_baseline(measured, baseline, threshold=3.0)
        assert not violations, "; ".join(violations)

    def test_streamed_ingest_within_3x_of_snapshot(self, tmp_path):
        """The chunked CSV decoder must not regress per-row.

        Decodes a 1/10-scale extract and compares against the
        proportionally scaled ``ingest_seconds_streamed_1m`` reference
        (the 0.25s floor in ``check_against_baseline`` absorbs fixed
        overhead at this size).
        """
        baseline = load_baseline(BASELINE_PATH)
        if baseline.get("ingest_seconds_streamed_1m") is None:
            pytest.skip("snapshot predates the ingest entries")
        seconds = ingest_microbench(
            n_rows=int(1_000_000 * INGEST_SCALE),
            mode="streamed",
            path=tmp_path / "ingest_gate.csv",
        )
        measured = {"ingest_seconds_streamed_1m": seconds / INGEST_SCALE}
        violations = check_against_baseline(measured, baseline, threshold=3.0)
        assert not violations, "; ".join(violations)

    def test_live_windowed_memory_sublinear(self):
        """The windowed engine must actually hold O(window) memory.

        Runs both modes of the memory microbench at 400k rows (reusing
        the config-keyed cached CSV, shared between the two modes) and
        requires the windowed peak to undercut the materialised one
        with margin. tracemalloc peaks are allocation counts, not
        timings, so this gate is essentially jitter-free.
        """
        baseline = load_baseline(BASELINE_PATH)
        if baseline.get("peak_rss_mb_windowed_1m") is None:
            pytest.skip("snapshot predates the memory entries")
        n_rows = int(1_000_000 * MEMORY_SCALE)
        windowed = memory_microbench(n_rows=n_rows, mode="windowed")
        materialised = memory_microbench(n_rows=n_rows, mode="materialised")
        assert windowed <= 0.85 * materialised, (
            f"windowed peak ({windowed:.1f}MB) is not below 85% of the "
            f"materialised peak ({materialised:.1f}MB) at 400k rows"
        )

    def test_live_ideal_bus_stays_near_direct(self):
        """The ideal null bus must actually be near-free on this
        machine. The committed snapshot enforces the tight 1.1x budget
        on the recording host; live CI allows 2x so sub-second timings
        on a loaded runner cannot flap the gate while still catching an
        accidentally heap-backed ideal path (which lands well past 2x).
        """
        baseline = load_baseline(BASELINE_PATH)
        if baseline.get("netsim_overhead_ideal") is None:
            pytest.skip("snapshot predates the netsim entries")
        direct = netsim_microbench(mode="direct")
        ideal = netsim_microbench(mode="ideal")
        assert ideal <= 2.0 * direct, (
            f"ideal-bus executor run ({ideal:.3f}s) is not within 2x of "
            f"the direct path ({direct:.3f}s)"
        )

    def test_batched_reconfig_within_3x_of_snapshot(self):
        """The batch reconfiguration path must not de-vectorise.

        Runs the full-repartition workload at 1/10 of the snapshot's
        universe and compares against the proportionally scaled
        reference (the 0.25s floor in ``check_against_baseline``
        absorbs the fixed overhead share at this size).
        """
        baseline = load_baseline(BASELINE_PATH)
        if baseline.get("reconfig_seconds_batch_1m") is None:
            pytest.skip("snapshot predates the reconfiguration entries")
        seconds = min(
            reconfig_microbench(n_accounts=int(1_000_000 * RECONFIG_SCALE))
            for _ in range(2)
        )
        measured = {"reconfig_seconds_batch_1m": seconds / RECONFIG_SCALE}
        violations = check_against_baseline(measured, baseline, threshold=3.0)
        assert not violations, "; ".join(violations)
