"""Unit tests for the run summaries."""

import json

import pytest

from repro.allocation.hash_based import HashAllocator
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.recorder import summarize_results


@pytest.fixture
def result(tiny_trace, params):
    config = SimulationConfig(params=params, history_fraction=0.8)
    return Simulation(tiny_trace, HashAllocator(), config).run()


class TestSummarize:
    def test_contains_all_keys(self, result):
        summary = summarize_results(result)
        for key in (
            "allocator",
            "k",
            "eta",
            "beta",
            "mean_cross_shard_ratio",
            "mean_normalized_throughput",
            "mean_workload_deviation",
            "mean_unit_time",
            "mean_input_bytes",
            "total_migrations",
        ):
            assert key in summary

    def test_values_json_serialisable(self, result):
        json.dumps(summarize_results(result))

