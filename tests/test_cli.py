"""Unit tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "out.csv", "--accounts", "500", "--seed", "3"]
        )
        assert args.output == "out.csv"
        assert args.accounts == 500
        assert args.seed == 3

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.method == "mosaic-pilot"
        assert args.shards == 16
        assert args.eta == 2.0

    def test_retired_engine_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["matrix", "--preset", "smoke", "--engine-modes", "execute-dense"])
        assert exit_info.value.code == 2
        assert "available: metrics, execute" in capsys.readouterr().err

    def test_unknown_matrix_preset_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["matrix", "--preset", "tiny-smoke"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "--smoke"],
            ["matrix", "--etl-smoke"],
            ["matrix", "--decoder", "python"],
            ["simulate", "--decoder", "python"],
            ["simulate", "--state-backend", "dense"],
            ["generate", "out.csv", "--sizing-index"],
            ["simulate", "--follow"],
            ["simulate", "--follow-poll", "0.2"],
            ["simulate", "--follow-idle", "10"],
        ],
    )
    def test_retired_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_scenarios_lists_catalogue(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "paper-default" in out
        assert "onboarding-wave" in out

    def test_generate_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main(
            [
                "generate",
                str(out_path),
                "--accounts",
                "300",
                "--transactions",
                "2000",
                "--blocks",
                "300",
            ]
        )
        assert code == 0
        assert out_path.exists()
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("hash,block_number,from_address")

    def test_fee_fraction_without_value_model_is_a_usage_error(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "trace.csv"
        small = ["--accounts", "300", "--transactions", "2000", "--blocks", "300"]
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", str(out_path), "--fee-fraction", "0.1", *small])
        assert exit_info.value.code == 2
        assert not out_path.exists()
        assert "--value-model" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--fee-fraction", "0.1", "--execute", *small])
        assert exit_info.value.code == 2
        # With a value model the same flag is honoured: a fee column.
        code = main(
            [
                "generate",
                str(out_path),
                "--fee-fraction",
                "0.1",
                "--value-model",
                "uniform",
                *small,
            ]
        )
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header.split(",")[-1] == "fee"

    def test_simulate_synthetic(self, capsys):
        code = main(
            [
                "simulate",
                "--accounts",
                "400",
                "--transactions",
                "3000",
                "--blocks",
                "400",
                "--tau",
                "40",
                "--shards",
                "4",
                "--method",
                "hash-random",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cross-shard ratio" in out
        assert "migrations committed" in out

    def test_simulate_from_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        main(
            [
                "generate",
                str(csv_path),
                "--accounts",
                "300",
                "--transactions",
                "2000",
                "--blocks",
                "300",
            ]
        )
        code = main(
            [
                "simulate",
                "--input",
                str(csv_path),
                "--tau",
                "40",
                "--shards",
                "4",
                "--method",
                "mosaic-pilot",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming" in out
        assert "decoder" not in out

    def test_matrix_tabulates_any_summary_metric(self, capsys):
        from repro.experiments import preset_matrix, run_matrix

        argv = ["matrix", "--preset", "network-smoke"]
        assert main(argv + ["--metric", "total_retransmissions"]) == 0
        out = capsys.readouterr().out
        (summary,) = run_matrix(preset_matrix("network-smoke")).summaries
        assert summary["total_retransmissions"] > 0
        assert f"{summary['total_retransmissions']:.2f}" in out
        assert main(argv + ["--metric", "total_nonsense"]) == 2
        assert "unknown metric 'total_nonsense'" in capsys.readouterr().err

    def test_simulate_builds_every_registered_method(self, capsys):
        """``--method`` takes any ``ALLOCATOR_BUILDERS`` key, txallo-a
        included."""
        small = ["--accounts", "300", "--transactions", "2000", "--blocks", "300"]
        code = main(
            ["simulate", "--method", "txallo-a", "--shards", "4", "--tau", "40"]
            + small
        )
        assert code == 0
        assert "cross-shard ratio" in capsys.readouterr().out

    def test_simulate_seeds_the_allocator(self, monkeypatch, capsys):
        from repro.allocation.hash_based import HashAllocator
        from repro.experiments.matrix import ALLOCATOR_BUILDERS

        seeds = []

        def build(seed):
            seeds.append(seed)
            return HashAllocator()

        monkeypatch.setitem(ALLOCATOR_BUILDERS, "metis", build)
        small = ["--accounts", "300", "--transactions", "2000", "--blocks", "300"]
        code = main(
            ["simulate", "--method", "metis", "--seed", "7", "--shards", "4"]
            + small
        )
        assert code == 0
        assert seeds == [7]

    def test_simulate_unknown_method(self, capsys):
        code = main(["simulate", "--method", "nope"])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_missing_input_reports_error(self, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.csv"
        code = main(["simulate", "--input", str(missing)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_with_report(self, tmp_path, capsys, monkeypatch):
        # Shrink the scenario so the comparison runs fast.
        from repro.data.ethereum import EthereumTraceConfig
        from repro.sim import scenario as scenario_module
        from repro.sim.scenario import Scenario

        tiny = Scenario(
            name="paper-default",
            description="shrunk for tests",
            trace_config=EthereumTraceConfig(
                n_accounts=400,
                n_transactions=3_000,
                n_blocks=400,
                seed=9,
            ),
            params=dataclasses.replace(
                scenario_module.get_scenario("paper-default").params, k=4, tau=40
            ),
            history_fraction=0.8,
        )
        monkeypatch.setitem(scenario_module.SCENARIOS, "paper-default", tiny)
        report_path = tmp_path / "report.md"
        code = main(
            [
                "compare",
                "--scenario",
                "paper-default",
                "--methods",
                "mosaic-pilot,hash-random",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mosaic-pilot" in out
        assert report_path.exists()
