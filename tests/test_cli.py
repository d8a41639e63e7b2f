"""Unit tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro import experiments
from repro.data.ethereum import EthereumTraceConfig
from repro.experiments import ALLOCATOR_BUILDERS, PRESETS, TraceSpec
from repro.experiments.matrix import SCENARIO_METHODS


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench"], "invalid choice: 'bench'"),
            (
                ["matrix", "--preset", "smoke", "--baseline", "snapshot.json"],
                "unrecognized arguments: --baseline",
            ),
        ],
    )
    def test_retired_perf_snapshot_is_a_usage_error(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        """The end-to-end benchmark is the one perf record: the snapshot
        command and flag exit 2 and write no file."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_retired_perf_snapshot_names_are_not_exported(self):
        retired = {
            "baseline_snapshot",
            "cell_delta_rows",
            "delta_is_noise",
            "memory_microbench",
            "refine_microbench",
            "run_bench",
            "smoke_seconds",
            "table2_matrix",
        }
        assert not retired & set(experiments.__all__)
        assert not any(hasattr(experiments, name) for name in retired)


@pytest.fixture
def tiny_paper_default(monkeypatch):
    """The ``paper-default`` preset shrunk so a comparison runs fast."""
    base = PRESETS["paper-default"]
    trace = TraceSpec(
        name="paper-default",
        config=EthereumTraceConfig(
            n_accounts=400, n_transactions=3_000, n_blocks=400, seed=9
        ),
    )
    monkeypatch.setitem(
        PRESETS,
        "paper-default",
        lambda seed: dataclasses.replace(
            base(seed), traces=(trace,), ks=(4,), tau=40, history_fraction=0.8
        ),
    )


class TestCommands:
    def test_scenarios_lists_catalogue(self, capsys):
        """The scenarios are presets: an unknown name lists every one,
        and the retired ``scenarios`` command is a usage error."""
        assert main(["compare", "--scenario", "nope"]) == 1
        err = capsys.readouterr().err
        assert "paper-default" in err
        assert "onboarding-wave" in err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

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

    def test_compare_with_report(self, tmp_path, capsys, tiny_paper_default):
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
        assert "metis" not in out
        assert "Scenario: paper-default" in report_path.read_text()

    def test_compare_is_run_matrix_over_the_preset(
        self, capsys, monkeypatch, tiny_paper_default
    ):
        """``compare`` prints the summaries ``run_matrix`` gives for the
        preset, all six methods in order, timing keys aside."""
        import repro.experiments as experiments
        from repro.experiments import preset_matrix, run_matrix

        results = []

        def spy(matrix, **kwargs):
            results.append(run_matrix(matrix, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, "run_matrix", spy)
        assert main(["compare", "--scenario", "paper-default"]) == 0
        (compared,) = results
        expected = run_matrix(preset_matrix("paper-default"))
        assert [o.deterministic_summary() for o in compared.outcomes] == [
            o.deterministic_summary() for o in expected.outcomes
        ]
        printed = [
            line.split()[:4]
            for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] and line.split()[0] in ALLOCATOR_BUILDERS
        ]
        assert printed == [
            [
                summary["allocator"],
                f"{summary['mean_cross_shard_ratio']:.2%}",
                f"{summary['mean_normalized_throughput']:.2f}",
                f"{summary['mean_workload_deviation']:.2f}",
            ]
            for summary in expected.summaries
        ]
        assert [row[0] for row in printed] == list(SCENARIO_METHODS)

    def test_matrix_rejects_bad_parameter_axes_before_any_cell(self, capsys):
        small = ["--accounts", "300", "--transactions", "2000", "--blocks", "200"]
        argv = ["matrix", "--methods", "hash-random", "--shards", "0"]
        assert main(argv + small) == 1
        captured = capsys.readouterr()
        assert "k must be >= 1" in captured.err
        assert captured.out == ""
