"""Epoch-driven simulation engine reproducing the paper's evaluation."""

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
from repro.sim.recorder import ResultRecorder, summarize_results
from repro.sim.scenario import (
    Scenario,
    SCENARIOS,
    DEFAULT_METHODS,
    get_scenario,
    run_comparison,
)
from repro.sim.stats import (
    MetricSummary,
    MultiSeedResult,
    run_multi_seed,
    summarize_metric,
)

__all__ = [
    "cross_shard_ratio",
    "workload_deviation",
    "throughput",
    "normalized_throughput",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "EpochRecord",
    "ResultRecorder",
    "summarize_results",
    "Scenario",
    "SCENARIOS",
    "DEFAULT_METHODS",
    "get_scenario",
    "run_comparison",
    "MetricSummary",
    "MultiSeedResult",
    "run_multi_seed",
    "summarize_metric",
]
