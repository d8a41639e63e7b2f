"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a synthetic Ethereum-like trace as an
  ethereum-etl CSV;
* ``simulate`` — run one allocator over a trace (CSV or synthetic) and
  print its metrics;
* ``compare``  — run a named scenario preset across several methods
  and print a comparison table (optionally a Markdown report);
* ``matrix`` — run a declarative allocator x trace x parameter grid,
  or a named CI preset (``--preset``), through the (optionally
  parallel) scenario-matrix runner.

Performance is measured end to end by ``benchmarks/e2e/`` (declared in
``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.report import write_report
from repro.chain.params import ProtocolParams
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.data.etl import write_transactions_csv
from repro.errors import ReproError
from repro.experiments.matrix import ALLOCATOR_BUILDERS, ENGINE_MODES, PRESETS
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.recorder import SUMMARY_METRICS, summarize_results
from repro.util.formatting import format_bytes, format_seconds, render_table


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--accounts", type=int, default=3_000, help="account universe size"
    )
    parser.add_argument(
        "--transactions", type=int, default=40_000, help="transaction count"
    )
    parser.add_argument("--blocks", type=int, default=2_400, help="block span")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--value-model",
        default="none",
        choices=("none", "uniform", "zipf", "burst"),
        help="attach per-transfer values to the synthetic trace "
        "(zipf = heavy-tailed, burst = zipf + flash-crowd window)",
    )
    parser.add_argument(
        "--fee-fraction",
        type=float,
        default=0.0,
        help="with a value model: per-transfer fee as a fraction of value",
    )


def _check_trace_arguments(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject trace flags that would be silently dropped (exit status 2)."""
    if getattr(args, "fee_fraction", 0.0) > 0 and args.value_model == "none":
        parser.error(
            "--fee-fraction needs a --value-model: fees are a fraction "
            "of each transfer's value"
        )


def _trace_config(args: argparse.Namespace) -> EthereumTraceConfig:
    value_model = None
    if args.value_model != "none":
        from repro.data.generators import ValueModelConfig

        value_model = ValueModelConfig(
            kind=args.value_model, fee_fraction=args.fee_fraction
        )
    return EthereumTraceConfig(
        n_accounts=args.accounts,
        n_transactions=args.transactions,
        n_blocks=args.blocks,
        hub_fraction=0.01,
        hub_transaction_share=0.12,
        seed=args.seed,
        value_model=value_model,
    )


def _command_generate(args: argparse.Namespace) -> int:
    trace = generate_ethereum_like_trace(_trace_config(args))
    rows = write_transactions_csv(args.output, trace)
    print(f"wrote {rows:,} transactions to {args.output}")
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    build = ALLOCATOR_BUILDERS.get(args.method)
    if build is None:
        print(
            f"error: unknown method {args.method!r}; "
            f"available: {sorted(ALLOCATOR_BUILDERS)}",
            file=sys.stderr,
        )
        return 2
    params = ProtocolParams(
        k=args.shards, eta=args.eta, tau=args.tau, beta=args.beta, seed=args.seed
    )
    config = SimulationConfig(
        params=params,
        execute_values=args.execute,
        funding=args.funding,
        history_epochs=args.history_epochs,
        beacon_spill_dir=args.beacon_spill,
        network=args.network,
    )
    if args.input:
        from repro.data.source import CsvTraceSource

        source = CsvTraceSource(args.input)
        print(f"streaming {args.input}")
    else:
        source = generate_ethereum_like_trace(_trace_config(args))
        print(f"generated {len(source):,} synthetic transactions")
    result = Simulation(source, build(args.seed), config).run()
    summary = summarize_results(result)
    rows = [
        ["epochs", summary["epochs"]],
        ["cross-shard ratio", f"{summary['mean_cross_shard_ratio']:.2%}"],
        [
            "normalised throughput",
            f"{summary['mean_normalized_throughput']:.2f}",
        ],
        [
            "workload deviation",
            f"{summary['mean_workload_deviation']:.2f}",
        ],
        [
            "time per decision",
            format_seconds(float(summary["mean_unit_time"])),
        ],
        ["input size", format_bytes(float(summary["mean_input_bytes"]))],
        ["migrations committed", summary["total_migrations"]],
    ]
    if args.execute:
        rows.extend(
            [
                [
                    "transfers executed",
                    summary["total_executed_transactions"],
                ],
                [
                    "value settled (relays)",
                    f"{float(summary['total_settled_volume']):.1f}",
                ],
                ["overdraft aborts", summary["total_overdraft_aborts"]],
                [
                    "receipts in flight",
                    summary["final_in_flight_receipts"],
                ],
            ]
        )
    if "network" in summary:
        rows.extend(
            [
                ["network model", summary["network"]],
                ["messages delivered", summary["total_delivered_messages"]],
                ["messages dropped", summary["total_dropped_messages"]],
                ["retransmissions", summary["total_retransmissions"]],
                ["timeout refunds", summary["total_timeout_refunds"]],
                [
                    "confirmation latency",
                    f"{float(summary['mean_confirmation_latency_blocks']):.1f}"
                    " blocks",
                ],
                [
                    "receipt staleness p99",
                    f"{float(summary['max_receipt_staleness_p99']):.1f}"
                    " blocks",
                ],
            ]
        )
    print()
    print(render_table(["Metric", "Value"], rows))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.experiments import preset_matrix, run_matrix

    matrix = preset_matrix(args.scenario)
    if args.methods:
        matrix = replace(matrix, methods=tuple(args.methods.split(",")))
    print(f"scenario: {matrix.name}")
    summaries = run_matrix(matrix, strict=True).summaries
    rows = [
        [
            summary["allocator"],
            f"{summary['mean_cross_shard_ratio']:.2%}",
            f"{summary['mean_normalized_throughput']:.2f}",
            f"{summary['mean_workload_deviation']:.2f}",
            format_seconds(float(summary["mean_unit_time"])),
        ]
        for summary in summaries
    ]
    print()
    print(
        render_table(
            ["Method", "Cross-shard", "Throughput", "Workload dev.", "Time/decision"],
            rows,
        )
    )
    if args.report:
        annotated = [dict(summary, experiment=matrix.name) for summary in summaries]
        path = write_report(
            annotated, args.report, title=f"Scenario: {matrix.name}"
        )
        print(f"\nreport written to {path}")
    return 0


def _command_matrix(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ScenarioMatrix,
        default_trace,
        matrix_table,
        preset_matrix,
        run_matrix,
        with_trace_source,
        write_result_json,
    )

    if args.metric not in SUMMARY_METRICS:
        print(
            f"error: unknown metric {args.metric!r}; "
            f"available: {', '.join(SUMMARY_METRICS)}",
            file=sys.stderr,
        )
        return 2
    trace_source = (
        args.trace_source if args.trace_source != "synthetic" else None
    )
    if trace_source is not None and not Path(trace_source).is_file():
        print(
            f"error: --trace-source {trace_source!r} is not a file",
            file=sys.stderr,
        )
        return 2
    if args.preset is not None:
        matrix = preset_matrix(args.preset, seed=args.seed)
    else:
        try:
            ks = tuple(int(k) for k in args.shards.split(","))
            etas = tuple(float(e) for e in args.eta.split(","))
            betas = tuple(float(b) for b in args.beta.split(","))
        except ValueError as error:
            print(
                f"error: bad numeric list in --shards/--eta/--beta: {error}",
                file=sys.stderr,
            )
            return 2
        matrix = ScenarioMatrix(
            name=args.name,
            methods=tuple(args.methods.split(",")),
            traces=(
                default_trace(
                    "cli-trace",
                    n_accounts=args.accounts,
                    n_transactions=args.transactions,
                    n_blocks=args.blocks,
                    seed=args.seed,
                ),
            ),
            ks=ks,
            etas=etas,
            betas=betas,
            tau=args.tau,
            seed=args.seed,
        )
    # Every modifier applies to whichever grid was selected, preset or
    # custom, and the overrides land in one copy, so the grid validates
    # their final combination (e.g. `--funding observed --engine-modes
    # execute` on the metrics-only smoke grid) rather than each step.
    if trace_source is not None:
        matrix = with_trace_source(matrix, trace_source)
    overrides = {}
    if args.engine_modes is not None:
        overrides["engine_modes"] = args.engine_modes
    if args.funding is not None:
        overrides["funding"] = args.funding
    if args.network is not None:
        overrides["network"] = args.network
    if args.history_epochs is not None:
        overrides["history_epochs"] = args.history_epochs
        overrides["history_fraction"] = None
    matrix = replace(matrix, **overrides)
    print(
        f"matrix {matrix.name!r}: {len(matrix)} cells, "
        f"{args.workers} worker(s)"
    )
    result = run_matrix(matrix, workers=args.workers)
    print()
    print(
        matrix_table(
            matrix,
            result,
            metric=args.metric,
            value_format=(
                "{:.2%}" if args.metric == "mean_cross_shard_ratio" else "{:.2f}"
            ),
            lower_is_better=args.metric != "mean_normalized_throughput",
        )
    )
    print(
        f"\n{len(result.summaries)}/{len(matrix)} cells in "
        f"{result.seconds:.1f}s — digest {result.deterministic_digest()[:16]}"
    )
    for failure in result.failures:
        print(f"error: {failure.error}", file=sys.stderr)
    if args.output:
        path = write_result_json(result, args.output)
        print(f"results written to {path}")
    return 1 if result.failures else 0


def _engine_modes(text: str) -> Tuple[str, ...]:
    """Parse ``--engine-modes``; an unknown mode is a usage error."""
    modes = tuple(text.split(","))
    unknown = [mode for mode in modes if mode not in ENGINE_MODES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown engine modes {unknown}; "
            f"available: {', '.join(ENGINE_MODES)}"
        )
    return modes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mosaic: client-driven account allocation (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="write a synthetic trace as an ethereum-etl CSV"
    )
    _add_trace_arguments(generate)
    generate.add_argument("output", help="output CSV path")
    generate.set_defaults(handler=_command_generate)

    simulate = subparsers.add_parser(
        "simulate", help="run one allocator over a trace"
    )
    _add_trace_arguments(simulate)
    simulate.add_argument(
        "--input", help="ethereum-etl CSV to replay (default: synthesise)"
    )
    simulate.add_argument(
        "--method",
        default="mosaic-pilot",
        help=f"allocator ({', '.join(sorted(ALLOCATOR_BUILDERS))})",
    )
    simulate.add_argument("--shards", "-k", type=int, default=16)
    simulate.add_argument("--eta", type=float, default=2.0)
    simulate.add_argument("--tau", type=int, default=30)
    simulate.add_argument("--beta", type=float, default=0.0)
    simulate.add_argument(
        "--execute",
        action="store_true",
        help="drive the unified engine: execute value transfers "
        "through the cross-shard executor alongside the metrics",
    )
    simulate.add_argument(
        "--funding",
        default="uniform",
        choices=("uniform", "observed"),
        help="genesis supply for --execute: uniform per-account balance "
        "or value-faithful balances derived from the trace's value flow",
    )
    simulate.add_argument(
        "--network",
        default="ideal",
        choices=("ideal", "lan", "wan", "lossy"),
        help="message network for --execute: ideal (direct calls, "
        "bit-identical to the pre-network engine), lan, wan, or the "
        "degraded lossy WAN with drops/partitions/duplicates",
    )
    simulate.add_argument(
        "--history-epochs",
        type=int,
        default=None,
        help="place the history/evaluation split an absolute number of "
        "epochs after the first block instead of at a fraction of "
        "the rows",
    )
    simulate.add_argument(
        "--beacon-spill",
        default=None,
        metavar="DIR",
        help="spill the beacon chain's committed migration log to "
        "height-indexed segment files in DIR (bounded memory for "
        "long --execute runs)",
    )
    simulate.set_defaults(handler=_command_simulate)

    compare = subparsers.add_parser(
        "compare", help="run a named scenario preset across methods"
    )
    compare.add_argument(
        "--scenario", default="paper-default", help="preset name"
    )
    compare.add_argument(
        "--methods", help="comma-separated method subset (default: all)"
    )
    compare.add_argument("--report", help="write a Markdown report here")
    compare.set_defaults(handler=_command_compare)

    matrix = subparsers.add_parser(
        "matrix", help="run an allocator x trace x parameter grid"
    )
    matrix.add_argument("--name", default="cli-matrix", help="matrix name")
    matrix.add_argument(
        "--methods",
        default="mosaic-pilot,txallo,hash-random",
        help="comma-separated allocator names",
    )
    matrix.add_argument(
        "--shards", "-k", default="16", help="comma-separated k values"
    )
    matrix.add_argument("--eta", default="2.0", help="comma-separated eta values")
    matrix.add_argument("--beta", default="0.0", help="comma-separated beta values")
    matrix.add_argument("--tau", type=int, default=30)
    matrix.add_argument("--accounts", type=int, default=3_000)
    matrix.add_argument("--transactions", type=int, default=40_000)
    matrix.add_argument("--blocks", type=int, default=2_400)
    matrix.add_argument("--seed", type=int, default=0)
    matrix.add_argument(
        "--workers", type=int, default=1, help="process count (1 = sequential)"
    )
    matrix.add_argument(
        "--metric",
        default="mean_normalized_throughput",
        help="summary metric to tabulate",
    )
    matrix.add_argument(
        "--engine-modes",
        type=_engine_modes,
        default=None,
        help=(
            "comma-separated engine modes per cell: metrics (classic) or "
            "execute (unified value execution on the dense state store); "
            "default: the grid's own modes (metrics for a custom grid)"
        ),
    )
    matrix.add_argument(
        "--preset",
        choices=tuple(PRESETS),
        default=None,
        help="run a named CI grid instead of the custom one (the grid "
        "flags --name/--methods/--shards/--eta/--beta/--tau/--accounts/"
        "--transactions/--blocks are ignored; every other flag applies)",
    )
    matrix.add_argument(
        "--network",
        default=None,
        choices=("ideal", "lan", "wan", "lossy"),
        help="network model for executed cells: ideal (direct calls; "
        "labels and digests unchanged), lan, wan, or the lossy "
        "degraded WAN (requires executing --engine-modes); default: "
        "the grid's own model (ideal for a custom grid)",
    )
    matrix.add_argument(
        "--trace-source",
        default="synthetic",
        metavar="CSV|synthetic",
        help="trace-source axis: 'synthetic' (default) keeps the "
        "grid's trace; a CSV path replays that ethereum-etl extract "
        "through the chunked streamed decoder instead",
    )
    matrix.add_argument(
        "--history-epochs",
        type=int,
        default=None,
        help="place each cell's history/evaluation split an absolute "
        "number of epochs after the first block instead of at a "
        "fraction of the rows",
    )
    matrix.add_argument(
        "--funding",
        default=None,
        choices=("uniform", "observed"),
        help="genesis supply for executed cells: uniform legacy supply "
        "or value-faithful balances from the trace's observed flow "
        "(default: the grid's own mode — uniform, except the etl-smoke "
        "preset which funds from observed flow)",
    )
    matrix.add_argument("--output", help="write full results JSON here")
    matrix.set_defaults(handler=_command_matrix)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_trace_arguments(parser, args)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
