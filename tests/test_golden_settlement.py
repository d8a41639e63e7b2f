"""Golden settlement-order fixture: the (due_block, tx_id) contract.

``_settle_due`` must emit deposits in explicit ``(due_block, tx_id)``
order. This test replays a fixed mixed workload — intra and cross-shard
transfers, overdrafts, a mid-flight migration, varying gaps between
blocks — and pins the **exact settlement sequence** (block settled,
tx_id, receiver, amount, relay latency) plus the final per-shard state
roots against a checked-in fixture, so a rewrite of the
executor cannot silently reorder credits.

Regenerate after an intentional protocol change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_settlement.py
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.chain.crossshard import CrossShardExecutor
from repro.chain.mapping import ShardMapping
from repro.chain.state import StateRegistry
from repro.chain.transaction import TransactionBatch

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_settlement.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _run_workload():
    """Fixed deterministic workload; returns the settlement log."""
    rng = np.random.default_rng(1234)
    n_accounts, k = 24, 3
    mapping = ShardMapping(rng.integers(0, k, size=n_accounts), k=k)
    executor = CrossShardExecutor(
        StateRegistry(k=k, n_accounts=n_accounts), mapping, relay_delay_blocks=2
    )
    for account in range(n_accounts):
        executor.fund(account, float(rng.integers(0, 25)))

    log = []
    block = 0
    for step in range(12):
        n_tx = int(rng.integers(2, 140))
        batch = TransactionBatch(
            rng.integers(0, n_accounts, size=n_tx),
            rng.integers(0, n_accounts, size=n_tx),
            np.full(n_tx, block),
            rng.integers(0, 6, size=n_tx).astype(np.float64),
        )
        reports = executor.execute_batch(batch)
        for report in reports:
            log.append(
                {
                    "block": report.block,
                    "intra": report.intra_executed,
                    "withdraws": report.withdraws,
                    "settled": report.deposits_settled,
                    "failed": report.failed,
                    "latencies": report.relay_latencies,
                }
            )
        if step == 5:
            # Migrate an account while receipts naming it are pending.
            executor.registry.migrate_batch(
                np.array([3]), np.array([(mapping.shard_of(3) + 1) % k])
            )
            mapping.assign(3, (mapping.shard_of(3) + 1) % k)
        block += int(rng.integers(1, 4))

    # Pin the order receipts leave the ledger at the final flush.
    view = executor.ledger.view()
    pending = list(
        zip(
            view.tx_ids.tolist(),
            view.senders.tolist(),
            view.receivers.tolist(),
            view.amounts.tolist(),
            view.issued_blocks.tolist(),
        )
    )
    executor.settle_all(from_block=block)
    roots = [
        executor.registry.store_of(shard).state_root() for shard in range(k)
    ]
    return {
        "settlement_log": log,
        "final_pending_order": pending,
        "state_roots": roots,
        "total_value": executor.total_value(),
    }


class TestSettlementOrderGolden:
    def test_pending_view_is_due_then_txid_sorted(self):
        result = _run_workload()
        order = [row[0] for row in result["final_pending_order"]]
        issued = [row[4] for row in result["final_pending_order"]]
        # Constant relay delay: due order == issued order; tx ids break
        # ties in issue order.
        assert issued == sorted(issued)
        for prev, cur, b_prev, b_cur in zip(
            order, order[1:], issued, issued[1:]
        ):
            if b_prev == b_cur:
                assert prev < cur

    def test_matches_fixture(self):
        result = _run_workload()
        payload = json.loads(json.dumps(result))  # normalise tuples
        if REGEN or not GOLDEN_PATH.exists():
            GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
            if not REGEN:
                pytest.skip("golden settlement fixture created; rerun to compare")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert payload["state_roots"] == golden["state_roots"]
        assert payload["total_value"] == pytest.approx(
            golden["total_value"], abs=1e-9
        )
        assert payload["final_pending_order"] == golden["final_pending_order"]
        assert payload["settlement_log"] == golden["settlement_log"]
