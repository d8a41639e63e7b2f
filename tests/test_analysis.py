"""Unit tests for the analysis renderers and the Fig. 1 radar."""

import pytest

from repro.analysis.radar import RADAR_DIMENSIONS, RadarAxes, radar_scores
from repro.analysis.tables import (
    beta_sweep_table,
    comparison_table,
    overhead_table,
)
from repro.chain.network import OverheadModel
from repro.errors import ValidationError


def summary(allocator, k=4, eta=2.0, beta=0.0, **metrics):
    base = {
        "allocator": allocator,
        "k": k,
        "eta": eta,
        "beta": beta,
        "mean_cross_shard_ratio": 0.3,
        "mean_normalized_throughput": 2.0,
        "mean_workload_deviation": 0.2,
        "mean_unit_time": 1e-5,
        "mean_input_bytes": 230.0,
    }
    base.update(metrics)
    return base


class TestComparisonTable:
    def test_marks_best_value(self):
        summaries = [
            summary("pilot", mean_cross_shard_ratio=0.24),
            summary("random", mean_cross_shard_ratio=0.75),
        ]
        text = comparison_table(
            summaries,
            metric="mean_cross_shard_ratio",
            allocators=["pilot", "random"],
            row_settings=[{"k": 4, "label": "k = 4"}],
        )
        assert "k = 4" in text
        assert "24.00% *" in text
        assert "75.00%" in text

    def test_missing_combination_renders_dash(self):
        text = comparison_table(
            [summary("pilot", k=4)],
            metric="mean_cross_shard_ratio",
            allocators=["pilot", "random"],
            row_settings=[{"k": 16}],
        )
        assert "-" in text

    def test_higher_is_better_mode(self):
        summaries = [
            summary("pilot", mean_normalized_throughput=2.3),
            summary("random", mean_normalized_throughput=1.2),
        ]
        text = comparison_table(
            summaries,
            metric="mean_normalized_throughput",
            allocators=["pilot", "random"],
            row_settings=[{"k": 4}],
            value_format="{:.2f}",
            lower_is_better=False,
        )
        assert "2.30 *" in text


class TestOtherTables:
    def test_beta_sweep_sorted(self):
        summaries = [
            summary("pilot", beta=0.5),
            summary("pilot", beta=0.0),
            summary("other", beta=0.25),
        ]
        text = beta_sweep_table(summaries, allocator="pilot")
        lines = text.splitlines()
        assert len(lines) == 4  # header + rule + 2 rows
        assert lines[2].startswith("0.00")
        assert lines[3].startswith("0.50")

    def test_overhead_table_renders_three_frameworks(self):
        model = OverheadModel(
            total_transactions=10_000,
            total_accounts=1_000,
            k=4,
            window_transactions=500,
            committed_migrations=50,
            window_migrations=5,
        )
        text = overhead_table(model)
        for name in ("graph-based", "mosaic", "hash-based"):
            assert name in text


class TestRadar:
    def test_scores_normalised_to_1_5(self):
        axes = {
            "mosaic": RadarAxes.from_measurements(
                unit_time=1e-5,
                storage_bytes=100.0,
                communication_bytes=10.0,
                normalized_throughput=7.4,
                cross_shard_ratio=0.34,
                workload_deviation=0.6,
            ),
            "txallo": RadarAxes.from_measurements(
                unit_time=0.4,
                storage_bytes=1e9,
                communication_bytes=1e7,
                normalized_throughput=7.3,
                cross_shard_ratio=0.36,
                workload_deviation=0.7,
            ),
        }
        scores = radar_scores(axes)
        for method in axes:
            for dimension in RADAR_DIMENSIONS:
                assert 1.0 <= scores[method][dimension] <= 5.0
        # Mosaic dominates every efficiency dimension.
        assert scores["mosaic"]["computation_efficiency"] == 5.0
        assert scores["txallo"]["computation_efficiency"] == 1.0

    def test_all_tied_dimension_scores_5(self):
        axes = {
            "a": RadarAxes(1, 1, 1, 2, 0.5, 1),
            "b": RadarAxes(1, 1, 1, 2, 0.5, 1),
        }
        scores = radar_scores(axes)
        assert scores["a"]["throughput"] == 5.0
        assert scores["b"]["throughput"] == 5.0

    def test_infinite_efficiency_maps_to_5(self):
        axes = {
            "zero-cost": RadarAxes.from_measurements(0.0, 0.0, 0.0, 1, 0.5, 0.0),
            "other": RadarAxes.from_measurements(1.0, 1.0, 1.0, 2, 0.4, 1.0),
        }
        scores = radar_scores(axes)
        assert scores["zero-cost"]["computation_efficiency"] == 5.0

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            radar_scores({})

    def test_rejects_negative_axes(self):
        with pytest.raises(ValidationError):
            RadarAxes(-1, 1, 1, 1, 1, 1)
