"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a synthetic Ethereum-like trace as an
  ethereum-etl CSV;
* ``simulate`` — run one allocator over a trace (CSV or synthetic) and
  print its metrics;
* ``compare``  — run a named scenario across several methods and print
  a comparison table (optionally a Markdown report);
* ``scenarios`` — list the built-in scenarios;
* ``matrix`` — run a declarative allocator x trace x parameter grid
  through the (optionally parallel) scenario-matrix runner;
* ``bench`` — regenerate the ``BENCH_baseline.json`` performance
  snapshot (Table II workload + executor microbenchmark + smoke grid).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.report import write_report
from repro.chain.params import ProtocolParams
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.data.etl import write_transactions_csv
from repro.errors import ReproError
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.recorder import summarize_results
from repro.sim.scenario import DEFAULT_METHODS, SCENARIOS, get_scenario, run_comparison
from repro.util.formatting import format_bytes, format_seconds, render_table


#: Default location of the checked-in streamed-ETL CI fixture,
#: relative to the repository root.
ETL_SMOKE_FIXTURE = "tests/fixtures/etl_smoke.csv"


def _resolve_etl_fixture() -> Optional[Path]:
    """Locate the checked-in ETL smoke fixture.

    Tried relative to the current directory first (the CI invocation),
    then relative to the repository this module was loaded from, so
    ``repro matrix --etl-smoke`` also works from other directories in a
    source checkout. Returns ``None`` when neither exists (e.g. an
    installed package without the test tree).
    """
    for base in (Path.cwd(), Path(__file__).resolve().parents[2]):
        candidate = base / ETL_SMOKE_FIXTURE
        if candidate.is_file():
            return candidate
    return None


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
    if args.sizing_index:
        from repro.data.sizing import write_sizing_index

        sidecar = write_sizing_index(args.output)
        print(f"wrote sizing index to {sidecar}")
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    factory = DEFAULT_METHODS.get(args.method)
    if factory is None:
        print(
            f"error: unknown method {args.method!r}; "
            f"available: {sorted(DEFAULT_METHODS)}",
            file=sys.stderr,
        )
        return 2
    if args.follow and not args.input:
        print("error: --follow requires --input", file=sys.stderr)
        return 2
    params = ProtocolParams(
        k=args.shards, eta=args.eta, tau=args.tau, beta=args.beta, seed=args.seed
    )
    config = SimulationConfig(
        params=params,
        execute_values=args.execute,
        state_backend=args.state_backend,
        funding=args.funding,
        history_epochs=args.history_epochs,
        beacon_spill_dir=args.beacon_spill,
        network=args.network,
    )

    on_record = None
    if args.follow:
        from repro.data.source import FollowCsvTraceSource

        source = FollowCsvTraceSource(
            args.input,
            poll_interval=args.follow_poll,
            idle_timeout=args.follow_idle,
            decoder=args.decoder,
        )
        print(
            f"following {args.input} (poll {args.follow_poll}s, "
            f"idle timeout {args.follow_idle}s) — ctrl-c to stop"
        )

        def on_record(record) -> None:
            print(
                f"epoch {record.epoch}: {record.transactions:,} tx, "
                f"cross-shard {record.cross_shard_ratio:.2%}, "
                f"{record.migrations} migration(s)"
            )

    elif args.input:
        from repro.data.arrow import resolve_decoder
        from repro.data.source import CsvTraceSource

        source = CsvTraceSource(args.input, decoder=args.decoder)
        print(
            f"streaming {args.input} "
            f"({resolve_decoder(args.decoder)} decoder)"
        )
    else:
        source = generate_ethereum_like_trace(_trace_config(args))
        print(f"generated {len(source):,} synthetic transactions")
    result = Simulation(source, factory(), config, on_record).run()
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
    scenario = get_scenario(args.scenario)
    methods = args.methods.split(",") if args.methods else None
    print(f"scenario: {scenario.name} — {scenario.description}")
    summaries = run_comparison(scenario, methods=methods)
    rows = [
        [
            name,
            f"{summary['mean_cross_shard_ratio']:.2%}",
            f"{summary['mean_normalized_throughput']:.2f}",
            f"{summary['mean_workload_deviation']:.2f}",
            format_seconds(float(summary["mean_unit_time"])),
        ]
        for name, summary in summaries.items()
    ]
    print()
    print(
        render_table(
            ["Method", "Cross-shard", "Throughput", "Workload dev.", "Time/decision"],
            rows,
        )
    )
    if args.report:
        annotated = []
        for summary in summaries.values():
            entry = dict(summary)
            entry["experiment"] = scenario.name
            annotated.append(entry)
        path = write_report(
            annotated,
            args.report,
            title=f"Scenario: {scenario.name}",
            preamble=scenario.description,
        )
        print(f"\nreport written to {path}")
    return 0


def _run_network_smoke(seed: int, workers: int) -> int:
    """The CI degraded-WAN assertion: run the lossy cell twice.

    Passes only when (a) every cell succeeds, (b) the lossy network
    actually dropped messages and forced retransmissions, (c) value was
    conserved exactly despite drops/duplicates/timeout-refunds, and
    (d) the deterministic digest is identical across both runs — the
    seeded fault injection is reproducible, not merely plausible.
    """
    from repro.experiments import network_smoke_matrix, run_matrix

    matrix = network_smoke_matrix(seed=seed)
    print(
        f"network smoke {matrix.name!r}: {len(matrix)} cell(s) under the "
        "lossy WAN model, run twice for digest stability"
    )
    first = run_matrix(matrix, workers=workers)
    second = run_matrix(matrix, workers=workers)
    failures = [*first.failures, *second.failures]
    if failures:
        for failure in failures:
            print(f"error: {failure.error}", file=sys.stderr)
        return 1
    ok = True
    digest_a = first.deterministic_digest()
    digest_b = second.deterministic_digest()
    if digest_a != digest_b:
        print(
            "error: lossy-network digest unstable across repeats: "
            f"{digest_a[:16]} != {digest_b[:16]}",
            file=sys.stderr,
        )
        ok = False
    for summary in first.summaries:
        label = summary["cell"]
        retransmissions = int(summary.get("total_retransmissions", 0))
        dropped = int(summary.get("total_dropped_messages", 0))
        drift = float(summary.get("max_conservation_drift", 0.0))
        refunds = int(summary.get("total_timeout_refunds", 0))
        print(
            f"  {label}: dropped {dropped}, retransmitted "
            f"{retransmissions}, refunded {refunds}, "
            f"conservation drift {drift:.2e}"
        )
        if retransmissions <= 0:
            print(
                f"error: cell {label!r} saw no retransmissions — the "
                "lossy model is not exercising the retry path",
                file=sys.stderr,
            )
            ok = False
        if drift > 1e-6:
            print(
                f"error: cell {label!r} leaked value under loss: "
                f"conservation drift {drift}",
                file=sys.stderr,
            )
            ok = False
    if ok:
        print(f"network smoke OK — digest {digest_a[:16]} (stable)")
    return 0 if ok else 1


def _command_matrix(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ScenarioMatrix,
        baseline_snapshot,
        default_trace,
        etl_smoke_matrix,
        matrix_table,
        realloc_smoke_matrix,
        run_matrix,
        smoke_matrix,
        with_engine_modes,
        with_funding,
        with_history_epochs,
        with_network,
        with_trace_source,
        write_result_json,
    )

    if args.network_smoke:
        return _run_network_smoke(seed=args.seed, workers=args.workers)

    valid_metrics = (
        "mean_normalized_throughput",
        "mean_cross_shard_ratio",
        "mean_workload_deviation",
        "mean_unit_time",
        "mean_input_bytes",
        "total_executed_transactions",
        "total_settled_volume",
        "total_overdraft_aborts",
    )
    if args.metric not in valid_metrics:
        print(
            f"error: unknown metric {args.metric!r}; "
            f"available: {', '.join(valid_metrics)}",
            file=sys.stderr,
        )
        return 2
    engine_modes = tuple(args.engine_modes.split(","))
    trace_source = (
        args.trace_source if args.trace_source != "synthetic" else None
    )
    if trace_source is not None and not Path(trace_source).is_file():
        print(
            f"error: --trace-source {trace_source!r} is not a file",
            file=sys.stderr,
        )
        return 2
    if args.etl_smoke is not None:
        if trace_source is not None:
            print(
                "error: --etl-smoke already names its extract; "
                "pass the CSV as the --etl-smoke argument instead of "
                "--trace-source",
                file=sys.stderr,
            )
            return 2
        if args.etl_smoke:
            fixture = Path(args.etl_smoke)
            if not fixture.is_file():
                print(
                    f"error: --etl-smoke fixture {args.etl_smoke!r} "
                    "is not a file",
                    file=sys.stderr,
                )
                return 2
        else:
            fixture = _resolve_etl_fixture()
            if fixture is None:
                print(
                    f"error: default fixture {ETL_SMOKE_FIXTURE!r} not "
                    "found; pass a CSV path to --etl-smoke",
                    file=sys.stderr,
                )
                return 2
        matrix = etl_smoke_matrix(
            str(fixture), seed=args.seed, decoder=args.decoder
        )
        if engine_modes != ("metrics",):
            matrix = with_engine_modes(matrix, engine_modes)
    elif args.realloc_smoke:
        matrix = realloc_smoke_matrix(seed=args.seed)
        if engine_modes != ("metrics",):
            matrix = with_engine_modes(matrix, engine_modes)
    elif args.smoke:
        matrix = smoke_matrix(seed=args.seed)
        if engine_modes != ("metrics",):
            matrix = with_engine_modes(matrix, engine_modes)
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
            engine_modes=engine_modes,
        )
    # --trace-source and an explicit --funding apply to whichever grid
    # was selected (custom or a smoke variant), so neither is ever
    # silently ignored — `--etl-smoke --funding uniform` really runs
    # the legacy uniform supply.
    if trace_source is not None:
        matrix = with_trace_source(matrix, trace_source, decoder=args.decoder)
    if args.funding is not None:
        matrix = with_funding(matrix, args.funding)
    if args.network != "ideal":
        matrix = with_network(matrix, args.network)
    if args.history_epochs is not None:
        matrix = with_history_epochs(matrix, args.history_epochs)
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
    if args.baseline:
        path = baseline_snapshot(result, args.baseline)
        print(f"baseline snapshot written to {path}")
    return 1 if result.failures else 0


def _print_compiled_env() -> None:
    from repro.allocation.metis_like import kernels
    from repro.data import arrow
    from repro.experiments import compiled_env

    env = compiled_env()
    print(f"metis kernels : {kernels.describe()}")
    print(f"csv ingest    : {arrow.describe()}")
    print(
        "fast extra    : "
        + (
            "complete"
            if env["numba"] and env["pyarrow"]
            else "incomplete — pip install 'repro[fast]' for the "
            "compiled paths"
        )
    )


def _command_bench(args: argparse.Namespace) -> int:
    from repro.experiments import cell_delta_rows, run_bench

    if args.env:
        _print_compiled_env()
        return 0
    print(
        "running the Table II benchmark workload "
        f"({args.workers} worker(s)) + executor/reconfig/refine "
        "microbenches + smoke grid"
    )
    _print_compiled_env()
    payload = run_bench(path=args.output, workers=args.workers)
    print(f"\nsnapshot written to {args.output}")
    print(f"total_seconds   : {payload['total_seconds']}")
    print(f"kernel_seconds  : {payload['kernel_seconds']}")
    print(f"smoke_seconds   : {payload['smoke_seconds']}")
    if "reconfig_seconds_batch_1m" in payload:
        print(f"reconfig 1M     : {payload['reconfig_seconds_batch_1m']}s")
    if "ingest_seconds_streamed_1m" in payload:
        line = (
            f"ingest 1M       : {payload['ingest_seconds_streamed_1m']}s "
            f"streamed vs {payload['ingest_seconds_materialised_1m']}s "
            "materialised"
        )
        if "ingest_seconds_arrow_1m" in payload:
            line += f" vs {payload['ingest_seconds_arrow_1m']}s arrow"
        print(line)
    if "refine_seconds_python" in payload:
        line = f"refine          : {payload['refine_seconds_python']}s python"
        if "refine_seconds_jit" in payload:
            line += f" vs {payload['refine_seconds_jit']}s jit"
        print(line)
    if "peak_rss_mb_windowed_1m" in payload:
        print(
            f"peak memory 1M  : {payload['peak_rss_mb_windowed_1m']}MB "
            f"windowed vs {payload['peak_rss_mb_materialised_1m']}MB "
            "materialised"
        )
    if "speedup_vs_reference" in payload:
        print(f"speedup vs prev : {payload['speedup_vs_reference']}x")
    delta_rows = cell_delta_rows(payload)
    if delta_rows:
        # Per-cell deltas vs the previous snapshot make a drifting cell
        # visible at a glance instead of hiding inside the total; the
        # spread column says how noisy the cell's own repeats were, and
        # Peak MB where each cell's memory actually goes. Deltas inside
        # the cell's own spread are marked "~" — run-to-run noise, not
        # a real speedup or regression.
        from repro.experiments.bench import delta_is_noise

        flagged = 0
        rows = []
        for label, ref, now, delta, spread, peak in delta_rows:
            noise = delta_is_noise(delta, spread)
            flagged += noise
            rows.append(
                [
                    label,
                    f"{ref:.3f}s" if ref is not None else "-",
                    f"{now:.3f}s",
                    (f"{delta:+.0%}" + (" ~" if noise else ""))
                    if delta is not None
                    else "-",
                    f"{spread:.0%}" if spread is not None else "-",
                    f"{peak:.1f}" if peak is not None else "-",
                ]
            )
        print()
        print(
            render_table(
                ["Cell", "Reference", "Now", "Delta", "Spread", "Peak MB"],
                rows,
            )
        )
        if flagged:
            print(
                f"~ = delta within the cell's recorded spread "
                f"({flagged} cell(s) within noise)"
            )
    failures = int(payload.get("failures", 0))
    if failures:
        print(f"error: {failures} cell(s) failed", file=sys.stderr)
    return 1 if failures else 0


def _command_scenarios(_args: argparse.Namespace) -> int:
    rows = [
        [scenario.name, scenario.description] for scenario in SCENARIOS.values()
    ]
    print(render_table(["Scenario", "Description"], rows))
    return 0


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
    generate.add_argument(
        "--sizing-index",
        action="store_true",
        help="also write the <output>.sizing.npz sidecar so streamed "
        "observed-funding replays skip the sizing pass (one-pass ingest)",
    )
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
        help=f"allocator ({', '.join(sorted(DEFAULT_METHODS))})",
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
        "--state-backend",
        default="dict",
        choices=("dict", "dense"),
        help="per-shard state store backend for --execute",
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
        "--decoder",
        default="auto",
        choices=("python", "arrow", "auto"),
        help="row decoder for --input: python reference loop, "
        "arrow columnar fast path, or auto-detect (both are "
        "bit-identical)",
    )
    simulate.add_argument(
        "--history-epochs",
        type=int,
        default=None,
        help="place the history/evaluation split an absolute number of "
        "epochs after the first block instead of at a fraction of "
        "the rows (required for --follow)",
    )
    simulate.add_argument(
        "--follow",
        action="store_true",
        help="tail a growing ethereum-etl CSV (--input) through the "
        "unbounded streaming engine, printing metrics per epoch; "
        "requires --history-epochs, metrics-only",
    )
    simulate.add_argument(
        "--follow-poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="poll interval while waiting for new rows in --follow",
    )
    simulate.add_argument(
        "--follow-idle",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="end a --follow run after this long with no new rows",
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
        "compare", help="run a named scenario across methods"
    )
    compare.add_argument(
        "--scenario", default="paper-default", help="scenario name"
    )
    compare.add_argument(
        "--methods", help="comma-separated method subset (default: all)"
    )
    compare.add_argument("--report", help="write a Markdown report here")
    compare.set_defaults(handler=_command_compare)

    scenarios = subparsers.add_parser(
        "scenarios", help="list built-in scenarios"
    )
    scenarios.set_defaults(handler=_command_scenarios)

    bench = subparsers.add_parser(
        "bench",
        help="regenerate the BENCH_baseline.json performance snapshot",
    )
    bench.add_argument(
        "--output",
        default="BENCH_baseline.json",
        help="snapshot path (default: BENCH_baseline.json)",
    )
    bench.add_argument(
        "--workers", type=int, default=1, help="process count (1 = sequential)"
    )
    bench.add_argument(
        "--env",
        action="store_true",
        help="report which compiled fast paths (numba kernels, arrow "
        "decoder) are active in this environment, without running "
        "the benchmark",
    )
    bench.set_defaults(handler=_command_bench)

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
        default="metrics",
        help=(
            "comma-separated engine modes per cell: metrics (classic), "
            "execute (unified value execution, dict state backend), "
            "execute-dense (dense-array state backend)"
        ),
    )
    matrix.add_argument(
        "--smoke",
        action="store_true",
        help="run the built-in 2x2 CI smoke grid",
    )
    matrix.add_argument(
        "--realloc-smoke",
        action="store_true",
        help="run the reallocation-heavy executed CI cell (metis in "
        "execute-dense mode, exercising the batched beacon/"
        "reconfiguration path)",
    )
    matrix.add_argument(
        "--network-smoke",
        action="store_true",
        help="run the degraded-WAN executed CI cell twice and assert "
        "nonzero retransmissions, exact value conservation, and a "
        "stable deterministic digest across the repeats",
    )
    matrix.add_argument(
        "--network",
        default="ideal",
        choices=("ideal", "lan", "wan", "lossy"),
        help="network model for executed cells: ideal (direct calls; "
        "labels and digests unchanged), lan, wan, or the lossy "
        "degraded WAN (requires executing --engine-modes)",
    )
    matrix.add_argument(
        "--etl-smoke",
        nargs="?",
        const="",
        default=None,
        metavar="CSV",
        help="run the streamed value-faithful executed CI cell over an "
        f"ethereum-etl CSV (default fixture: {ETL_SMOKE_FIXTURE})",
    )
    matrix.add_argument(
        "--trace-source",
        default="synthetic",
        metavar="CSV|synthetic",
        help="trace-source axis: 'synthetic' (default) generates the "
        "grid's trace; a CSV path replays that ethereum-etl extract "
        "through the chunked streamed decoder instead",
    )
    matrix.add_argument(
        "--decoder",
        default="auto",
        choices=("python", "arrow", "auto"),
        help="row decoder for CSV trace sources (--trace-source / "
        "--etl-smoke): python reference, arrow columnar, or "
        "auto-detect",
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
        "(default: the grid's own mode — uniform, except --etl-smoke "
        "which defaults to observed)",
    )
    matrix.add_argument("--output", help="write full results JSON here")
    matrix.add_argument("--baseline", help="write a BENCH_baseline.json here")
    matrix.set_defaults(handler=_command_matrix)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
