"""Unit tests for the result recorder."""

import json

import pytest

from repro.allocation.hash_based import HashAllocator
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.recorder import ResultRecorder, summarize_results


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


class TestRecorder:
    def test_record_and_filter(self, result):
        recorder = ResultRecorder()
        recorder.record(result, experiment="table1", extra={"note": "a"})
        recorder.record(result, experiment="table2")
        assert len(recorder) == 2
        table1 = [e for e in recorder.entries if e["experiment"] == "table1"]
        assert len(table1) == 1
        assert table1[0]["note"] == "a"

    def test_save_and_load_roundtrip(self, result, tmp_path):
        recorder = ResultRecorder()
        recorder.record(result, experiment="table1")
        path = recorder.save(tmp_path / "results.json")
        loaded = ResultRecorder.load(path)
        assert len(loaded) == 1
        assert loaded.entries[0]["experiment"] == "table1"

    def test_entries_are_read_only_view(self, result):
        recorder = ResultRecorder()
        recorder.record(result, experiment="e")
        assert isinstance(recorder.entries, tuple)
