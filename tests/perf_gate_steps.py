"""The measured steps of the CI perf smoke gate (``test_perf_gate.py``).

Kept out of the test module so the memory gate's child process can
import them (with ``tests/`` on its ``PYTHONPATH``) without pytest:

* :func:`smoke_seconds` — median wall time of the CI smoke grid;
* :func:`refine_seconds` — one full Metis partition of the benchmark
  account graph;
* :func:`txallo_seconds` — one G-TxAllo over a ``pilot-metrics``-sized
  history (the phi_0 Mosaic's clients start from);
* :func:`memory_run` — a windowed or materialised metrics run over a
  valued CSV extract (:func:`valued_extract`), whose peak RSS growth
  the memory gate reads in a fresh child.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Callable

#: Accounts and epoch length of every memory-gate extract. Both stay
#: fixed as the row count grows, so a windowed run holds the same
#: window and account state at any row count: only memory that grows
#: with the rows read can make its peak grow.
GATE_ACCOUNTS = 10_000
GATE_TAU = 100
#: Rows per block of a gate extract (an epoch is GATE_TAU blocks).
GATE_ROWS_PER_BLOCK = 50
#: Rows per decoded chunk: small, so the windowed peak stops growing
#: at a small row count (at the default 65,536 it still grows up to
#: ~200k rows).
GATE_CHUNK_ROWS = 8_192


def smoke_seconds() -> float:
    """Median wall seconds of 3 runs of ``repro matrix --preset smoke``.

    The median keeps a single descheduled run on a loaded host from
    setting the figure.
    """
    from repro.experiments import preset_matrix, run_matrix

    matrix = preset_matrix("smoke")
    return median(run_matrix(matrix, strict=True).seconds for _ in range(3))


def refine_seconds() -> float:
    """Median wall seconds of 3 full multilevel k = 16 partitions of the
    benchmark account graph.

    The graph is the accumulated account graph of the benchmark trace
    (the one the ``metis/bench`` cells of the paper-table benches
    repartition every epoch); it is built and partitioned once untimed
    before the timed calls.
    """
    from repro.allocation.graph import TransactionGraph
    from repro.allocation.metis_like import partition_graph
    from repro.experiments.matrix import BENCH_TRACE_SPEC

    trace = BENCH_TRACE_SPEC.build()
    graph = TransactionGraph.from_batch(trace.batch, n_accounts=trace.n_accounts)
    partition_graph(graph, 16, seed=42)
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        partition_graph(graph, 16, seed=42)
        timings.append(time.perf_counter() - started)
    return median(timings)


def txallo_seconds() -> float:
    """Median wall seconds of 3 G-TxAllo runs (k = 16, eta = 2) over the
    history of the end-to-end ``pilot-metrics`` workload.

    The history is the first 300 epochs of tau = 10 blocks of the seed-0
    trace of 50,000 accounts (110,000 transactions over 5,500 blocks):
    24,782 accounts with edges. The graph is built and allocated once
    untimed before the timed calls.
    """
    from repro.allocation.graph import TransactionGraph
    from repro.allocation.txallo import g_txallo
    from repro.data.ethereum import (
        EthereumTraceConfig,
        generate_ethereum_like_trace,
    )

    config = EthereumTraceConfig(
        n_accounts=50_000,
        n_transactions=110_000,
        n_blocks=5_500,
        hub_fraction=0.002,
        hub_transaction_share=0.25,
        seed=0,
    )
    history, _ = generate_ethereum_like_trace(config).split_epochs(10, 300)
    graph = TransactionGraph.from_batch(
        history.batch, n_accounts=history.n_accounts
    )
    g_txallo(graph, 16, 2.0)
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        g_txallo(graph, 16, 2.0)
        timings.append(time.perf_counter() - started)
    return median(timings)


def valued_extract(n_rows: int) -> Path:
    """Write (or reuse) the gate's valued ``n_rows``-row CSV extract.

    The file carries value and fee columns like a real ethereum-etl
    extract. It is cached in the system temp dir under a name keyed on
    the generating config, so a file written by another code version
    (another schema or value model) is never reused.
    """
    from repro.data.ethereum import (
        EthereumTraceConfig,
        generate_ethereum_like_trace,
    )
    from repro.data.etl import write_transactions_csv
    from repro.data.generators import ValueModelConfig

    config = EthereumTraceConfig(
        n_transactions=n_rows,
        n_accounts=GATE_ACCOUNTS,
        n_blocks=max(1, n_rows // GATE_ROWS_PER_BLOCK),
        hub_fraction=0.005,
        hub_transaction_share=0.15,
        seed=7,
        value_model=ValueModelConfig(fee_fraction=0.01),
    )
    config_key = hashlib.sha256(repr(config).encode()).hexdigest()[:12]
    path = Path(tempfile.gettempdir()) / (
        f"repro_gate_extract_{n_rows}_{config_key}.csv"
    )
    if not path.exists():
        write_transactions_csv(path, generate_ethereum_like_trace(config))
    return path


def memory_run(n_rows: int, mode: str) -> Callable[[], None]:
    """A hash-random metrics run over the ``n_rows``-row extract.

    ``mode="windowed"`` streams the CSV through the chunked
    :class:`~repro.data.source.CsvTraceSource`; ``mode="materialised"``
    first decodes the whole file into a :class:`Trace`. The extract is
    written before the step is returned, so writing it never sets the
    step's peak.
    """
    from repro.allocation.hash_based import HashAllocator
    from repro.chain.params import ProtocolParams
    from repro.data.source import CsvTraceSource
    from repro.sim.engine import Simulation, SimulationConfig

    if mode not in ("windowed", "materialised"):
        raise ValueError(f"mode must be 'windowed' or 'materialised', got {mode!r}")
    source = CsvTraceSource(valued_extract(n_rows), chunk_rows=GATE_CHUNK_ROWS)
    config = SimulationConfig(
        params=ProtocolParams(k=8, tau=GATE_TAU, seed=7), history_epochs=4
    )

    def run() -> None:
        data = source if mode == "windowed" else source.materialise()
        Simulation(data, HashAllocator(), config).run()

    return run
