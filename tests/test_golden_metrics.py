"""Golden-metric regression: fixed-seed end-to-end runs per allocator.

Each registered allocator runs one small, fully-deterministic
simulation cell; every epoch's deterministic metrics are compared
against the checked-in fixture ``tests/golden/golden_metrics.json`` at
1e-9 — any numeric drift in the vectorised pipeline (the metrics of
``repro.sim.metrics``, allocators, migration accounting) fails loudly
here.

Regenerate the fixture after an *intentional* numeric change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_metrics.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import MatrixCell, TraceSpec, run_cell
from repro.data.ethereum import EthereumTraceConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_metrics.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: Every allocator family in the registry, one golden cell each.
METHODS = ["mosaic-pilot", "txallo", "txallo-a", "metis", "hash-random", "orbit"]

#: Per-epoch fields that must be bit-stable (wall-clock fields are not).
EPOCH_FIELDS = (
    "epoch",
    "transactions",
    "cross_shard_ratio",
    "workload_deviation",
    "normalized_throughput",
    "input_bytes",
    "migrations",
    "proposed_migrations",
    "new_accounts",
)

GOLDEN_TRACE = TraceSpec(
    name="golden-trace",
    config=EthereumTraceConfig(
        n_accounts=800,
        n_transactions=8_000,
        n_blocks=500,
        hub_fraction=0.01,
        hub_transaction_share=0.12,
        seed=11,
    ),
)


def golden_cell(method: str) -> MatrixCell:
    return MatrixCell(
        method=method,
        trace=GOLDEN_TRACE,
        k=4,
        eta=2.0,
        beta=0.0,
        tau=50,
        matrix_seed=99,
    )


def epoch_records(method: str):
    result = run_cell(golden_cell(method))
    return [
        {field: getattr(record, field) for field in EPOCH_FIELDS}
        for record in result.records
    ]


@pytest.fixture(scope="module")
def golden():
    if REGEN:
        payload = {method: epoch_records(method) for method in METHODS}
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True))
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden fixture missing: {GOLDEN_PATH} "
            "(run with REPRO_REGEN_GOLDEN=1 to create it)"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("method", METHODS)
def test_epoch_metrics_match_golden(method, golden):
    assert method in golden, f"no golden snapshot for {method!r}"
    expected_epochs = golden[method]
    actual_epochs = epoch_records(method)
    assert len(actual_epochs) == len(expected_epochs)
    for index, (actual, expected) in enumerate(
        zip(actual_epochs, expected_epochs)
    ):
        for field in EPOCH_FIELDS:
            assert actual[field] == pytest.approx(
                expected[field], abs=1e-9, rel=0
            ), f"{method} epoch {index} field {field!r} drifted"


def test_golden_runs_are_repeatable():
    """The same cell twice in one process gives identical records."""
    first = epoch_records("mosaic-pilot")
    second = epoch_records("mosaic-pilot")
    assert first == second
