"""End-to-end epoch-loop benchmark.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--trace] [--repeat N]

With one workload and no ``--repeat`` the measurement runs in this
process: it prints ``workload metric value unit`` lines and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). Otherwise every (workload, repeat) pair runs in its
own fresh child process, one at a time, and each metric is printed as
its median over the repeats with its spread, (max - min) / median.

The exit status is 0 only when every check passed. The benchmark needs
``src/repro`` from the same checkout and exits with status 2 without a
result when it is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for cached inputs, beacon spill and trace JSONL.
WORKDIR = ROOT / ".bench_e2e"
DEFAULT_SECONDS = 15
#: Generous cap on one child measurement (a run takes seconds + one rep).
CHILD_TIMEOUT_S = 600


def _measure_here(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from e2e_bench import WORKLOADS, measure

    measurement = measure(WORKLOADS[workload], seed, seconds, trace, WORKDIR)
    for line in measurement.report_lines(trace):
        print(line)
    print(json.dumps(measurement.result(trace)), flush=True)
    return 0 if measurement.correct else 1


def _measure_in_children(
    workloads, seed: int, seconds: float, trace: bool, repeat: int
) -> int:
    status = 0
    for workload in workloads:
        results = []
        for _ in range(repeat):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ]
            child = subprocess.run(
                command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                status = 1
                sys.stderr.write(child.stdout[-4000:] + child.stderr[-4000:])
            if lines and lines[-1].startswith("{"):
                results.append(json.loads(lines[-1]))
        if not results:
            print(f"{workload} error no-result")
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        for metric, entry in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median if median else 0.0
            print(
                f"{workload} {metric} {median!r} {entry['unit']} "
                f"spread={spread:.4f} n={len(values)}"
            )
        print(f"{workload} failed_frac {failed / max(1, attempted)!r} ratio")
        if not all(r["correct"] for r in results):
            status = 1
    return status


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    # Single-threaded numeric libraries; set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from e2e_bench import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare flag): also run traced and report per-layer metrics",
    )
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.repeat < 1:
        parser.error("--seed must be >= 0, --seconds > 0, --repeat >= 1")

    workloads = args.workload or list(WORKLOADS)
    if len(workloads) == 1 and args.repeat == 1:
        return _measure_here(workloads[0], args.seed, args.seconds, bool(args.trace))
    return _measure_in_children(
        workloads, args.seed, args.seconds, bool(args.trace), args.repeat
    )


if __name__ == "__main__":
    sys.exit(main())
