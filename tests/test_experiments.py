"""Tests for the scenario-matrix subsystem and its determinism claims.

Covers: grid construction and validation, deterministic per-cell
seeding (independent RNG streams across cells), parallel-vs-sequential
bit-identity, aggregation into the analysis/tables format, and the
``repro matrix --preset`` CI entry points.
"""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.tables import comparison_table
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import (
    ALLOCATOR_BUILDERS,
    PRESETS,
    ScenarioMatrix,
    default_trace,
    execute_cell,
    grid_row_settings,
    matrix_table,
    preset_matrix,
    run_matrix,
    write_result_json,
)
from repro.experiments import matrix as matrix_module
from repro.experiments.runner import TIMING_KEYS
from repro.sim.engine import Simulation
from repro.sim.recorder import summarize_results
from repro.util.rng import RngFactory


def tiny_matrix(seed=0, methods=("mosaic-pilot", "hash-random")):
    return ScenarioMatrix(
        name="tiny",
        methods=methods,
        traces=(
            default_trace(
                "tiny-trace",
                n_accounts=400,
                n_transactions=3_000,
                n_blocks=300,
                seed=5,
            ),
        ),
        ks=(2, 4),
        tau=30,
        seed=seed,
    )


class TestScenarioMatrix:
    def test_cells_expand_in_deterministic_order(self):
        matrix = tiny_matrix()
        labels = [cell.label for cell in matrix.cells()]
        assert labels == [cell.label for cell in matrix.cells()]
        assert len(labels) == len(matrix) == 4
        assert labels[0].startswith("mosaic-pilot/tiny-trace/k2")

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigurationError, match="unknown methods"):
            tiny_matrix(methods=("mosaic-pilot", "nonexistent"))

    def test_observed_funding_rejects_metrics_mode(self):
        """A metrics-only cell funds no genesis, so labelling it
        ``/funding-observed`` would report a run that never happened."""
        with pytest.raises(ConfigurationError, match="value execution"):
            replace(tiny_matrix(), funding="observed")
        with pytest.raises(ConfigurationError, match="value execution"):
            ScenarioMatrix(
                name="mixed",
                methods=("hash-random",),
                traces=tiny_matrix().traces,
                engine_modes=("metrics", "execute"),
                funding="observed",
            )
        # Executing modes only: legal, and the label says so.
        executed = ScenarioMatrix(
            name="executed",
            methods=("hash-random",),
            traces=tiny_matrix().traces,
            engine_modes=("execute",),
            funding="observed",
        )
        (cell,) = executed.cells()
        assert cell.label.endswith("/execute/funding-observed")

    def test_rejects_empty_axes(self):
        with pytest.raises(ConfigurationError):
            ScenarioMatrix(
                name="bad", methods=("mosaic-pilot",), traces=(), ks=(2,)
            )

    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"ks": (4, 0)}, "k must be >= 1"),
            ({"tau": 0}, "tau must be >= 1"),
            ({"betas": (0.5, 2.0)}, "beta"),
            ({"etas": (0.5,)}, "eta"),
        ],
    )
    def test_rejects_bad_parameter_axes(self, axes, message):
        """A value ProtocolParams rejects fails the grid at construction,
        before any cell runs."""
        with pytest.raises(ConfigurationError, match=message):
            replace(tiny_matrix(), **axes)

    def test_cell_seeds_are_distinct_and_stable(self):
        matrix = tiny_matrix(seed=123)
        seeds = [cell.cell_seed for cell in matrix.cells()]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [cell.cell_seed for cell in matrix.cells()]
        # A different matrix seed moves every cell seed.
        other = [cell.cell_seed for cell in tiny_matrix(seed=124).cells()]
        assert all(a != b for a, b in zip(seeds, other))

    def test_cell_rng_streams_are_independent(self):
        """Spawned per-cell streams never collide across cells."""
        matrix = tiny_matrix(seed=7)
        draws = {}
        for cell in matrix.cells():
            stream = RngFactory(cell.matrix_seed).spawn(cell.label)
            draws[cell.label] = stream.generator("engine").random(64)
        labels = list(draws)
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                assert not np.allclose(draws[a], draws[b]), (a, b)


class TestAllocatorBuilders:
    @pytest.mark.parametrize(
        "method", ["mosaic-pilot", "mosaic-pilot-fifo", "mosaic-pilot-unlimited"]
    )
    def test_mosaic_builders_ignore_the_seed(self, method):
        """Mosaic reads neither its builder seed nor ``params.seed``, so
        the ablation rows keep their numbers under their own cell seeds
        (``benchmarks/output/ablations.txt`` depends on it)."""
        smoke = preset_matrix("smoke")
        grid = replace(smoke, methods=(method,), ks=(4,), history_fraction=0.5)
        (cell,) = grid.cells()
        trace = cell.trace.build()
        summaries = []
        for seed in (1, 2):
            config = cell.simulation_config()
            config = replace(config, params=replace(config.params, seed=seed))
            allocator = ALLOCATOR_BUILDERS[method](seed)
            summary = summarize_results(Simulation(trace, allocator, config).run())
            summaries.append(
                {k: v for k, v in summary.items() if k not in TIMING_KEYS}
            )
        assert summaries[0] == summaries[1]
        assert summaries[0]["total_migrations"] > 0


class TestRunnerDeterminism:
    def test_parallel_matches_sequential_bit_for_bit(self):
        matrix = tiny_matrix()
        sequential = run_matrix(matrix, workers=1)
        parallel = run_matrix(matrix, workers=2)
        assert sequential.failures == [] and parallel.failures == []
        assert (
            sequential.deterministic_digest() == parallel.deterministic_digest()
        )
        # Field-level check, not just the digest: identical summaries
        # modulo wall-clock timing.
        for left, right in zip(sequential.outcomes, parallel.outcomes):
            assert left.deterministic_summary() == right.deterministic_summary()

    def test_rerun_is_bit_identical(self):
        matrix = tiny_matrix()
        assert (
            run_matrix(matrix).deterministic_digest()
            == run_matrix(matrix).deterministic_digest()
        )

    def test_execute_cell_labels_summary(self):
        cell = tiny_matrix().cells()[0]
        summary = execute_cell(cell)
        assert summary["cell"] == cell.label
        assert summary["allocator"] == cell.method
        assert summary["k"] == cell.k
        assert summary["seed"] == cell.cell_seed


class TestAggregation:
    def test_summaries_feed_comparison_table(self):
        matrix = tiny_matrix()
        result = run_matrix(matrix)
        text = comparison_table(
            result.summaries,
            metric="mean_normalized_throughput",
            allocators=list(matrix.methods),
            row_settings=grid_row_settings(matrix),
            value_format="{:.2f}",
            lower_is_better=False,
        )
        assert "mosaic-pilot" in text and "k = 2" in text and "k = 4" in text
        assert "-" not in text.splitlines()[2].replace("--", "")

    def test_matrix_table_shortcut(self):
        matrix = tiny_matrix()
        assert "hash-random" in matrix_table(matrix, run_matrix(matrix))

    def test_write_result_json_round_trips(self, tmp_path):
        matrix = tiny_matrix()
        result = run_matrix(matrix)
        path = write_result_json(result, tmp_path / "result.json")
        payload = json.loads(path.read_text())
        assert payload["matrix"] == "tiny"
        assert payload["digest"] == result.deterministic_digest()
        assert len(payload["summaries"]) == len(matrix)
        assert payload["failures"] == []


class TestMatrixCli:
    def test_smoke_grid_runs_clean(self, capsys):
        """The CI smoke target: a 2x2 grid through the full pipeline."""
        assert main(["matrix", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "4/4 cells" in out
        assert "digest" in out

    def test_smoke_matrix_is_two_by_two(self):
        assert len(preset_matrix("smoke")) == 4

    def test_unknown_preset_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            preset_matrix("tiny-smoke")

    def test_missing_etl_fixture_is_a_configuration_error(self, monkeypatch):
        monkeypatch.setattr(
            matrix_module, "ETL_SMOKE_FIXTURE", "tests/fixtures/absent.csv"
        )
        with pytest.raises(ConfigurationError, match="absent.csv"):
            preset_matrix("etl-smoke")

    def test_preset_seed_moves_cell_seeds(self):
        for name in PRESETS:
            default = [c.cell_seed for c in preset_matrix(name).cells()]
            other = [c.cell_seed for c in preset_matrix(name, seed=1).cells()]
            assert all(a != b for a, b in zip(default, other)), name

    def test_network_preset_honours_every_modifier(self, tmp_path, capsys):
        """Modifiers apply to the network preset like to any grid: the
        history split relabels its cell and --output writes the file."""
        out_file = tmp_path / "net.json"
        code = main(
            [
                "matrix",
                "--preset",
                "network-smoke",
                "--history-epochs",
                "3",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        summaries = json.loads(out_file.read_text())["summaries"]
        assert summaries
        for summary in summaries:
            assert summary["cell"].endswith("/hist3/execute/net-lossy")

    def test_etl_preset_replays_a_trace_source(self, tmp_path, capsys):
        fixture = matrix_module._resolve_etl_fixture()
        copy = tmp_path / "extract.csv"
        shutil.copyfile(fixture, copy)
        code = main(
            ["matrix", "--preset", "etl-smoke", "--trace-source", str(copy)]
        )
        assert code == 0
        assert "1/1 cells" in capsys.readouterr().out

    def test_observed_funding_on_metrics_preset_fails_cleanly(self, capsys):
        code = main(["matrix", "--preset", "smoke", "--funding", "observed"])
        assert code == 1
        assert "needs value execution" in capsys.readouterr().err
        # The overrides validate as one combination, so adding executing
        # engine modes makes the same request legal.
        code = main(
            [
                "matrix",
                "--preset",
                "smoke",
                "--funding",
                "observed",
                "--engine-modes",
                "execute",
            ]
        )
        assert code == 0

    def test_custom_grid_and_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "cells.json"
        code = main(
            [
                "matrix",
                "--methods",
                "hash-random",
                "--shards",
                "2,4",
                "--accounts",
                "300",
                "--transactions",
                "2000",
                "--blocks",
                "200",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        assert len(json.loads(out_file.read_text())["summaries"]) == 2

    def test_unknown_method_is_a_clean_error(self, capsys):
        assert main(["matrix", "--methods", "bogus"]) == 1
        assert "unknown methods" in capsys.readouterr().err


#: Full sha256 of each CI preset's deterministic payload, as
#: ``repro matrix --preset NAME [--engine-modes ...]`` prints its prefix.
PINNED_PRESET_DIGESTS = [
    ("smoke", None, "a5163894b740a2548abb63c93cee31647644cf2c61523047f438713415f42d14"),
    ("smoke", "execute", "575970da3b8365da0fb2ccbbaf42cdd2969e97f6ece48919cb802ea0f20704be"),
    ("realloc-smoke", None, "63cb134731e4680ebf5e4b18b72ac11460f2a9caa5ebc2b1080a0195af489875"),
    ("network-smoke", None, "99f4d87a3aa9932873daaac43f5935f56e2eef19f49e603c761c3cf34a9454a6"),
    ("etl-smoke", None, "b7abc1338744501ad7ad04a2be72c4381250828d9a841a3bbf044803b5c94c71"),
]


@pytest.mark.parametrize(
    "preset, engine_mode, digest",
    PINNED_PRESET_DIGESTS,
    ids=[f"{p}-{m}" if m else p for p, m, _ in PINNED_PRESET_DIGESTS],
)
def test_preset_digest_is_pinned(preset, engine_mode, digest):
    matrix = preset_matrix(preset)
    if engine_mode is not None:
        matrix = replace(matrix, engine_modes=(engine_mode,))
    assert run_matrix(matrix, workers=1).deterministic_digest() == digest
