"""Epoch-driven simulation engine reproducing the paper's evaluation.

* :mod:`repro.sim.metrics` — the evaluation metrics: cross-shard
  ratio, workload deviation and throughput;
* :mod:`repro.sim.engine` — the epoch loop, with optional value
  execution on the chain substrate;
* :mod:`repro.sim.recorder` — per-run summaries.
"""

from repro.sim.metrics import (
    cross_shard_ratio,
    workload_deviation,
    throughput,
    normalized_throughput,
)
from repro.sim.engine import (
    Simulation,
    SimulationConfig,
    SimulationResult,
    EpochRecord,
)
from repro.sim.recorder import summarize_results

__all__ = [
    "cross_shard_ratio",
    "workload_deviation",
    "throughput",
    "normalized_throughput",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "EpochRecord",
    "summarize_results",
]
