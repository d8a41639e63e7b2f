"""Table IV: per-update running time and input data size.

This is the paper's headline efficiency result: Pilot runs in ~1e-5 s
per client on a few hundred bytes, while G-TxAllo and Metis take
seconds to minutes on the full transaction graph. Each method's update
step is timed directly with pytest-benchmark on identical prepared
state; the A-TxAllo variant is included as in the paper's 'A \\ G'
split. The ``pilot-scalar`` row times one client's scalar
``Pilot.decide`` itself, with ``perf_counter``, so it survives
``--benchmark-disable``. The render measures any row whose timing test
did not run in this session, so a partial run still writes every row.
"""

from __future__ import annotations

import statistics
import time

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
from repro.chain.mapping import ShardMapping
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch
from repro.core.interaction import interaction_distribution
from repro.core.mosaic import MosaicAllocator
from repro.core.pilot import Pilot
from repro.experiments import ALLOCATOR_BUILDERS
from repro.util.formatting import format_bytes, format_seconds, render_table
from repro.util.rng import RngFactory

TIMED_METHODS = [PILOT, TXALLO_ADAPTIVE, TXALLO, METIS, RANDOM]
#: Table IV's row for one client's scalar Pilot run.
PILOT_SCALAR = "pilot-scalar"
#: Timed ``Pilot.decide`` calls behind the scalar row's median.
SCALAR_CALLS = 101


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


def _scalar_pilot(bench_trace):
    """One client's scalar Pilot run, the paper's 2e-5 s figure: the
    median of ``SCALAR_CALLS`` timed ``Pilot.decide`` calls, and the
    bytes of input that run reads."""
    k = 16
    rng = RngFactory(BENCH_SEED).generator("table4-client")
    mapping = ShardMapping.uniform_random(bench_trace.n_accounts, k, rng)
    account = int(bench_trace.batch.senders[0])
    history = bench_trace.batch.involving(account)
    omega = rng.uniform(1.0, 10.0, size=k)
    pilot = Pilot(eta=2.0)
    expected = TransactionBatch.empty()
    seconds = []
    for _ in range(SCALAR_CALLS):
        start = time.perf_counter()
        decision = pilot.decide(account, history, expected, omega, mapping)
        seconds.append(time.perf_counter() - start)
    assert 0 <= decision.best_shard < k
    psi = interaction_distribution(account, history, mapping)
    return (
        statistics.median(seconds),
        MosaicAllocator._mean_pilot_input_bytes(psi[None, :], k),
    )


def test_table4_scalar_pilot_unit_time(benchmark, bench_trace, updates):
    """Time the *per-client* scalar Pilot run for the ``pilot-scalar`` row."""
    updates[PILOT_SCALAR] = benchmark.pedantic(
        _scalar_pilot, args=(bench_trace,), rounds=1, iterations=1
    )


def test_table4_render(output_dir, benchmark, bench_trace, prepared, updates):
    """Render Table IV from the recorded update measurements."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for method in TIMED_METHODS:
        if method not in updates:
            allocator, mapping, context = prepared[method]
            updates[method] = allocator.update(mapping, context)
    if PILOT_SCALAR not in updates:
        updates[PILOT_SCALAR] = _scalar_pilot(bench_trace)
    measured = {
        method: (updates[method].unit_time, updates[method].input_bytes)
        for method in TIMED_METHODS
    }
    measured[PILOT_SCALAR] = updates[PILOT_SCALAR]
    headers = ["Method", "Time per decision unit", "Input data size"]
    rows = []
    for method in (PILOT, PILOT_SCALAR, *TIMED_METHODS[1:]):
        unit_time, input_bytes = measured[method]
        rows.append([method, format_seconds(unit_time), format_bytes(input_bytes)])
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
