"""CI perf smoke gate: catch order-of-magnitude regressions and leaks.

The end-to-end benchmark (``benchmarks/e2e/``, declared in
``BENCHMARK.json``) is the repo's perf record. This gate checks what it
does not, with bounds written here:

* the ``repro matrix --preset smoke`` grid (median of 3) and one full
  Metis partition of the benchmark account graph (median of 3) each
  finish within 0.75 s: 3x a 0.25 s floor that lies above both
  (0.023 s and 0.178 s on a 2-vCPU VM), far above scheduler jitter on
  a slow runner, well below the slowdowns an accidental
  de-vectorisation causes;
* one G-TxAllo over the ``pilot-metrics`` history (median of 3)
  finishes within 0.75 s, the same 3x of a 0.25 s floor. On a 2-vCPU
  VM it reads ~0.25 s; a commit loop that scatters into a live
  connection matrix read ~0.42 s, and one ``np.bincount`` re-check per
  mover over a dense all-account scan ~0.59 s. The bound does not tell
  those apart from this kernel; it catches a several-fold slide, such
  as a scan that walks accounts in Python, not jitter;
* the windowed engine holds no memory that grows with the rows it
  reads. A windowed run at two row counts, with the accounts and
  ``tau`` held fixed so the window is the same size in both, may grow
  its peak by at most half the decoded size of the extra rows; the
  materialised twin, which holds the whole trace, must exceed that
  bound, which shows the gate sees row-proportional memory. At the
  larger row count the windowed peak must also stay below 85% of the
  materialised one, so a fixed bloat shows too.

Each memory run's peak RSS growth is read in a fresh child process
(``/proc/self/status`` is only read). The steps live in
``perf_gate_steps.py`` so the child can import them.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

import repro
from perf_gate_steps import (
    refine_seconds,
    smoke_seconds,
    txallo_seconds,
    valued_extract,
)

#: Wall-clock bound (s) of the smoke grid, the Metis refine and G-TxAllo.
SMOKE_BOUND_S = 0.75
REFINE_BOUND_S = 0.75
TXALLO_BOUND_S = 0.75

#: Row counts of the memory gate's two runs per mode. At the gate's
#: chunk size the windowed peak has reached its steady size by the
#: smaller one.
MEMORY_ROWS = (100_000, 300_000)
#: Most a run's peak may grow between the two row counts (MB): half the
#: decoded size of the extra rows, at 40 B a row (sender, receiver,
#: block, value and fee, eight bytes each). In units of that size a
#: windowed run reads ~0.1, a leak of the decoded rows ~1 and the
#: materialised run ~2.2.
GROWTH_BOUND_MB = 0.5 * 40 * (MEMORY_ROWS[1] - MEMORY_ROWS[0]) / 2**20


@pytest.fixture(scope="module")
def peak_growth_mb() -> Dict[Tuple[str, int], float]:
    """Peak RSS growth (MB) of each mode at each row count, each run in
    a fresh child. Both extracts are written first, so input generation
    never sets a child's peak."""
    for n_rows in MEMORY_ROWS:
        valued_extract(n_rows)
    return {
        (mode, n_rows): _child_rss_growth_mb(n_rows, mode)
        for mode in ("windowed", "materialised")
        for n_rows in MEMORY_ROWS
    }


def _growth_between_row_counts(peaks, mode: str) -> float:
    small, large = MEMORY_ROWS
    return peaks[mode, large] - peaks[mode, small]


class TestPerfSmokeGate:
    """The gate: live timings and live memory runs, literal bounds."""

    def test_smoke_grid_within_bound(self):
        seconds = smoke_seconds()
        assert seconds <= SMOKE_BOUND_S, (
            f"smoke grid took {seconds:.3f}s (bound {SMOKE_BOUND_S}s)"
        )

    def test_metis_refine_within_bound(self):
        seconds = refine_seconds()
        assert seconds <= REFINE_BOUND_S, (
            f"Metis partition took {seconds:.3f}s (bound {REFINE_BOUND_S}s)"
        )

    def test_g_txallo_within_bound(self):
        seconds = txallo_seconds()
        assert seconds <= TXALLO_BOUND_S, (
            f"G-TxAllo took {seconds:.3f}s (bound {TXALLO_BOUND_S}s)"
        )

    def test_windowed_peak_does_not_grow_with_rows(self, peak_growth_mb):
        growth = _growth_between_row_counts(peak_growth_mb, "windowed")
        assert growth <= GROWTH_BOUND_MB, (
            f"windowed peak grew {growth:.1f}MB from {MEMORY_ROWS[0]} to "
            f"{MEMORY_ROWS[1]} rows (bound {GROWTH_BOUND_MB:.1f}MB)"
        )

    def test_materialised_peak_exceeds_the_bound(self, peak_growth_mb):
        """The gate's own check: a run that holds every row must fail it."""
        growth = _growth_between_row_counts(peak_growth_mb, "materialised")
        assert growth > GROWTH_BOUND_MB, (
            f"materialised peak grew only {growth:.1f}MB from "
            f"{MEMORY_ROWS[0]} to {MEMORY_ROWS[1]} rows, within the "
            f"{GROWTH_BOUND_MB:.1f}MB bound: the gate cannot see a trace"
        )

    def test_live_windowed_memory_sublinear(self, peak_growth_mb):
        """At the larger row count the windowed peak, fixed costs
        included, stays well under the materialised one (it reads
        ~0.37 of it)."""
        rows = MEMORY_ROWS[1]
        windowed = peak_growth_mb["windowed", rows]
        materialised = peak_growth_mb["materialised", rows]
        assert windowed <= 0.85 * materialised, (
            f"windowed peak ({windowed:.1f}MB) is not below 85% of the "
            f"materialised peak ({materialised:.1f}MB) at {rows} rows"
        )


#: Child-process body of the memory gate: the growth of the peak
#: resident set (``VmHWM``) over the resident set at the start of the
#: step, in MB. A fresh child's high-water mark covers its own life
#: only, so nothing needs resetting.
_RSS_CHILD = """
import sys
from perf_gate_steps import memory_run

def status_kb(field):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])

run = memory_run(int(sys.argv[1]), sys.argv[2])
start = status_kb("VmRSS")
run()
print((status_kb("VmHWM") - start) / 1024)
"""


def _child_rss_growth_mb(n_rows: int, mode: str) -> float:
    """Peak RSS growth (MB) of one memory run in a fresh child."""
    paths = (
        str(Path(repro.__file__).resolve().parents[1]),
        str(Path(__file__).resolve().parent),
        os.environ.get("PYTHONPATH"),
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    child = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(n_rows), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return float(child.stdout.split()[-1])
