"""CI perf smoke gate: catch order-of-magnitude performance regressions.

The gate re-runs what ``BENCH_baseline.json`` records that the
end-to-end benchmark (``benchmarks/e2e/``) does not: the
``repro matrix --preset smoke`` grid and the Metis refine microbench
must stay within 3x of the committed snapshot, and the windowed engine
must hold O(window) memory at scale (peak RSS growth measured in fresh
child processes; ``/proc/self/status`` is only read).
3x is far above normal machine jitter but well below the slowdowns that
accidental de-vectorisation causes. Per-layer timings (executor,
message bus, beacon commit, state movement, CSV decode) are bounded by
the end-to-end benchmark's workloads instead. Regenerate the snapshot
with ``python -m repro bench`` after an intentional performance change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

import repro
from repro.errors import ExperimentError
from repro.experiments.bench import (
    _valued_extract,
    refine_microbench,
    smoke_seconds,
)

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"


def load_baseline(path: Path) -> dict:
    """Read the committed snapshot; a missing file fails the test."""
    assert path.exists(), f"no benchmark snapshot at {path}"
    return json.loads(path.read_text())


def check_against_baseline(
    measured: Dict[str, float],
    baseline: Dict[str, object],
    threshold: float = 3.0,
    min_reference: float = 0.25,
) -> List[str]:
    """Compare measured wall times against snapshot entries.

    ``measured`` maps snapshot keys (``smoke_seconds``,
    ``refine_seconds_python``) to freshly measured seconds. Returns a
    list of human-readable violations (empty = gate passes); keys the
    snapshot does not carry are skipped, so the gate degrades
    gracefully against older snapshots. References are floored at
    ``min_reference`` seconds so millisecond-scale snapshot entries
    recorded on a fast machine do not turn scheduler jitter on slower
    CI runners into failures.
    """
    if threshold <= 1.0:
        raise ExperimentError(f"threshold must be > 1, got {threshold}")
    violations: List[str] = []
    for key, seconds in measured.items():
        reference = baseline.get(key)
        if not isinstance(reference, (int, float)) or reference <= 0:
            continue
        floored = max(float(reference), min_reference)
        if seconds > threshold * floored:
            violations.append(
                f"{key}: measured {seconds:.3f}s vs snapshot "
                f"{float(reference):.3f}s (> {threshold:g}x of "
                f"max(reference, {min_reference:g}s))"
            )
    return violations


#: Every key ``repro bench`` writes.
SNAPSHOT_KEYS = {
    "cell_peak_mb",
    "cell_seconds",
    "cell_spread",
    "digest",
    "failures",
    "machine",
    "matrix",
    "notes",
    "peak_rss_mb_materialised_1m",
    "peak_rss_mb_windowed_1m",
    "python",
    "recorded_at",
    "reference",
    "refine_seconds_python",
    "smoke_seconds",
    "speedup_vs_reference",
    "timing_repeats",
    "total_seconds",
    "workers",
}

#: CI-sized memory bench: the snapshot's 1M-row windowed-vs-materialised
#: comparison at 400k rows — large enough that the O(total-rows)
#: materialised peak clearly dominates the windowed engine's
#: O(window + accounts) floor (at 100-200k rows fixed overheads still
#: mask the gap), small enough for a CI lane.
MEMORY_SCALE = 0.4


class TestGateLogic:
    def test_passes_within_threshold(self):
        baseline = {"smoke_seconds": 1.0, "refine_seconds_python": 2.0}
        measured = {"smoke_seconds": 2.5, "refine_seconds_python": 1.0}
        assert check_against_baseline(measured, baseline) == []

    def test_flags_regression(self):
        baseline = {"smoke_seconds": 1.0}
        violations = check_against_baseline(
            {"smoke_seconds": 3.5}, baseline, threshold=3.0
        )
        assert len(violations) == 1
        assert "smoke_seconds" in violations[0]

    def test_missing_keys_are_skipped(self):
        assert check_against_baseline({"smoke_seconds": 99.0}, {}) == []

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
        for key in ("total_seconds", "smoke_seconds", "refine_seconds_python"):
            assert isinstance(baseline.get(key), (int, float)), key

    def test_snapshot_carries_only_the_kept_keys(self):
        """The snapshot is written by ``repro bench`` alone: no key of a
        retired microbench."""
        baseline = load_baseline(BASELINE_PATH)
        assert set(baseline) == SNAPSHOT_KEYS

    def test_snapshot_is_valid_json_with_cells(self):
        payload = json.loads(BASELINE_PATH.read_text())
        assert payload["cell_seconds"], "snapshot must carry per-cell timings"

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


class TestPerfSmokeGate:
    """The actual gate — runs the smoke grid and the kept microbenches."""

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
        measured = {"refine_seconds_python": refine_microbench()}
        violations = check_against_baseline(measured, baseline, threshold=3.0)
        assert not violations, "; ".join(violations)

    def test_live_windowed_memory_sublinear(self):
        """The windowed engine must actually hold O(window) memory.

        Runs both modes of the memory bench's step at 400k rows over
        the config-keyed cached CSV (written here first, so input
        generation never sets a child's peak), each in a fresh child
        process, and requires the windowed peak RSS growth to undercut
        the materialised one with margin.
        """
        baseline = load_baseline(BASELINE_PATH)
        if baseline.get("peak_rss_mb_windowed_1m") is None:
            pytest.skip("snapshot predates the memory entries")
        n_rows = int(1_000_000 * MEMORY_SCALE)
        _valued_extract(n_rows)
        windowed = _child_rss_growth_mb(n_rows, "windowed")
        materialised = _child_rss_growth_mb(n_rows, "materialised")
        assert windowed <= 0.85 * materialised, (
            f"windowed peak ({windowed:.1f}MB) is not below 85% of the "
            f"materialised peak ({materialised:.1f}MB) at 400k rows"
        )


#: Child-process body of the memory gate: the growth of the peak
#: resident set (``VmHWM``) over the resident set at the start of the
#: step, in MB. A fresh child's high-water mark covers its own life
#: only, so nothing needs resetting.
_RSS_CHILD = """
import sys
from repro.experiments.bench import _memory_run

def status_kb(field):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])

run = _memory_run(int(sys.argv[1]), sys.argv[2])
start = status_kb("VmRSS")
run()
print((status_kb("VmHWM") - start) / 1024)
"""


def _child_rss_growth_mb(n_rows: int, mode: str) -> float:
    """Peak RSS growth (MB) of the memory bench's step in a fresh child."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(n_rows), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return float(child.stdout.split()[-1])
