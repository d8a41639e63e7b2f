"""Unit tests for the columnar pending-receipt ledger."""

import numpy as np
import pytest

from repro.chain.receipts import ReceiptBatch, ReceiptLedger
from repro.errors import ValidationError


def issue(ledger, tx_ids, block, due, amount=1.0, target=1):
    tx_ids = np.asarray(tx_ids, dtype=np.int64)
    n = len(tx_ids)
    ledger.append_batch(
        tx_ids=tx_ids,
        senders=tx_ids * 10,
        receivers=tx_ids * 10 + 1,
        amounts=np.full(n, amount),
        source_shards=np.zeros(n, dtype=np.int64),
        target_shards=np.full(n, target, dtype=np.int64),
        issued_block=block,
        due_block=due,
    )


class TestAppendAndPop:
    def test_empty(self):
        ledger = ReceiptLedger()
        assert len(ledger) == 0
        assert ledger.total_amount == 0.0
        assert len(ledger.pop_due(10)) == 0

    def test_pop_due_prefix(self):
        ledger = ReceiptLedger()
        issue(ledger, [0, 1], block=0, due=1)
        issue(ledger, [2], block=1, due=2)
        due = ledger.pop_due(1)
        assert due.tx_ids.tolist() == [0, 1]
        assert len(ledger) == 1
        assert ledger.pop_due(2).tx_ids.tolist() == [2]
        assert len(ledger) == 0

    def test_running_total_tracks_issue_and_settle(self):
        ledger = ReceiptLedger()
        issue(ledger, [0, 1, 2], block=0, due=1, amount=2.5)
        assert ledger.total_amount == pytest.approx(7.5)
        ledger.pop_due(1)
        assert ledger.total_amount == 0.0  # snapped exactly on drain

    def test_running_total_matches_recomputed_sum(self):
        rng = np.random.default_rng(3)
        ledger = ReceiptLedger(capacity=4)
        next_id = 0
        for block in range(40):
            n = int(rng.integers(0, 5))
            issue(
                ledger,
                np.arange(next_id, next_id + n),
                block=block,
                due=block + int(rng.integers(1, 4)),
                amount=float(rng.integers(1, 9)),
            )
            next_id += n
            ledger.pop_due(block)
            # Satellite check: the O(1) running total equals the value
            # recomputed from the pending columns.
            assert ledger.total_amount == pytest.approx(
                float(ledger.view().amounts.sum())
            )

    def test_growth_preserves_content(self):
        ledger = ReceiptLedger(capacity=2)
        issue(ledger, list(range(50)), block=0, due=5)
        assert len(ledger) == 50
        assert ledger.view().tx_ids.tolist() == list(range(50))

    def test_negative_amount_rejected(self):
        ledger = ReceiptLedger()
        with pytest.raises(ValidationError):
            ledger.append_batch(
                tx_ids=np.array([0]),
                senders=np.array([0]),
                receivers=np.array([1]),
                amounts=np.array([-1.0]),
                source_shards=np.array([0]),
                target_shards=np.array([1]),
                issued_block=0,
                due_block=1,
            )

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValidationError):
            ReceiptLedger(capacity=0)


class TestSettlementOrder:
    def test_due_block_then_tx_id_order(self):
        """Out-of-order issuance still settles in (due_block, tx_id)."""
        ledger = ReceiptLedger()
        issue(ledger, [0], block=3, due=5)
        issue(ledger, [1], block=1, due=2)  # issued later, due earlier
        issue(ledger, [2], block=2, due=2)
        due = ledger.pop_due(5)
        assert due.tx_ids.tolist() == [1, 2, 0]
        assert due.due_blocks.tolist() == [2, 2, 5]

    def test_same_due_block_out_of_order_tx_ids_resort(self):
        """Equal due blocks still settle in tx-id order (review fix)."""
        ledger = ReceiptLedger()
        issue(ledger, [5], block=0, due=3)
        issue(ledger, [2], block=1, due=3)
        assert ledger.pop_due(3).tx_ids.tolist() == [2, 5]

    def test_unsorted_tx_ids_within_batch_resort(self):
        ledger = ReceiptLedger()
        issue(ledger, [4, 1, 3], block=0, due=2)
        assert ledger.view().tx_ids.tolist() == [1, 3, 4]

    def test_view_is_sorted_and_nondestructive(self):
        ledger = ReceiptLedger()
        issue(ledger, [4], block=2, due=4)
        issue(ledger, [5], block=0, due=1)
        view = ledger.view()
        assert view.tx_ids.tolist() == [5, 4]
        assert len(ledger) == 2

    def test_view_columns_carry_every_field(self):
        ledger = ReceiptLedger()
        issue(ledger, [7], block=1, due=3, amount=2.0)
        # tx id, sender, receiver, amount, source/target shard, issued/due.
        assert [column.tolist() for column in ledger.view()] == [
            [7], [70], [71], [2.0], [0], [1], [1], [3]
        ]


class TestReceiptBatch:
    def test_empty_batch(self):
        batch = ReceiptBatch.empty()
        assert len(batch) == 0
        assert batch.amounts.dtype == np.float64
        assert batch.tx_ids.dtype == np.int64
