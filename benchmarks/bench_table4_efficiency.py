"""Table IV: per-update running time and input data size.

This is the paper's headline efficiency result: Pilot runs in ~1e-5 s
per client on a few hundred bytes, while G-TxAllo and Metis take
seconds to minutes on the full transaction graph. Each method's update
step is timed directly with pytest-benchmark on identical prepared
state; the A-TxAllo variant is included as in the paper's 'A \\ G'
split. The render runs the update of any method whose timing test did
not run in this session, so a partial run still writes every row.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    BENCH_SEED,
    BENCH_TAU,
    METIS,
    PILOT,
    RANDOM,
    TXALLO,
    TXALLO_ADAPTIVE,
    emit,
)
from repro.allocation.base import UpdateContext
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.core.pilot import Pilot
from repro.experiments import ALLOCATOR_BUILDERS
from repro.util.formatting import format_bytes, format_seconds, render_table
from repro.util.rng import RngFactory

TIMED_METHODS = [PILOT, TXALLO_ADAPTIVE, TXALLO, METIS, RANDOM]


def _prepare(bench_trace, method):
    """Initialise an allocator on the history prefix, ready for update."""
    params = ProtocolParams(k=16, eta=2.0, tau=BENCH_TAU, seed=BENCH_SEED)
    allocator = ALLOCATOR_BUILDERS[method](BENCH_SEED)
    history, evaluation = bench_trace.split(0.9)
    mapping = allocator.initialize(history, params)
    epochs = evaluation.epoch_list(BENCH_TAU)
    committed = epochs[0].batch if epochs else TransactionBatch.empty()
    mempool = epochs[1].batch if len(epochs) > 1 else committed
    context = UpdateContext(
        epoch=0,
        params=params,
        committed=committed,
        mempool=mempool,
        capacity=params.derive_capacity(len(committed)),
    )
    return allocator, mapping, context


@pytest.fixture(scope="module")
def prepared(bench_trace):
    """Each timed method's allocator, mapping and update context."""
    return {method: _prepare(bench_trace, method) for method in TIMED_METHODS}


@pytest.fixture(scope="module")
def updates():
    """The latest update result per method, shared with the render."""
    return {}


@pytest.mark.parametrize("method", TIMED_METHODS)
def test_table4_update_time(benchmark, prepared, updates, method):
    allocator, mapping, context = prepared[method]
    updates[method] = benchmark.pedantic(
        lambda: allocator.update(mapping, context),
        rounds=3 if method in (PILOT, TXALLO_ADAPTIVE, RANDOM) else 1,
        iterations=1,
    )


def test_table4_scalar_pilot_unit_time(benchmark, bench_trace):
    """Time the *per-client* scalar Pilot run, the paper's 2e-5 s figure."""
    from repro.chain.mapping import ShardMapping

    params = ProtocolParams(k=16, eta=2.0, tau=BENCH_TAU, seed=BENCH_SEED)
    rng = RngFactory(BENCH_SEED).generator("table4-client")
    mapping = ShardMapping.uniform_random(bench_trace.n_accounts, 16, rng)
    account = int(bench_trace.batch.senders[0])
    history = bench_trace.batch.involving(account)
    omega = rng.uniform(1.0, 10.0, size=16)
    pilot = Pilot(eta=2.0)

    decision = benchmark(
        lambda: pilot.decide(
            account, history, TransactionBatch.empty(), omega, mapping
        )
    )
    assert 0 <= decision.best_shard < 16


def test_table4_render(output_dir, benchmark, prepared, updates):
    """Render Table IV from the recorded update measurements."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for method in TIMED_METHODS:
        if method not in updates:
            allocator, mapping, context = prepared[method]
            updates[method] = allocator.update(mapping, context)
    headers = ["Method", "Time per decision unit", "Input data size"]
    rows = [
        [
            method,
            format_seconds(updates[method].unit_time),
            format_bytes(updates[method].input_bytes),
        ]
        for method in TIMED_METHODS
    ]
    emit(
        output_dir,
        "table4_efficiency",
        "Table IV: running time and input data size",
        render_table(headers, rows),
    )

    # Shape: Pilot is orders of magnitude faster and smaller.
    pilot = updates[PILOT]
    for heavy in (TXALLO, METIS):
        assert updates[heavy].unit_time > 1_000 * pilot.unit_time
        assert updates[heavy].input_bytes > 1_000 * pilot.input_bytes
