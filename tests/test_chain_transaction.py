"""Unit tests for Transaction and TransactionBatch."""

import numpy as np
import pytest

from repro.chain.transaction import Transaction, TransactionBatch
from repro.errors import ValidationError


class TestTransaction:
    def test_accounts_set(self):
        tx = Transaction(sender=1, receiver=2)
        assert tx.accounts == frozenset({1, 2})

    def test_involves(self):
        tx = Transaction(sender=1, receiver=2)
        assert tx.involves(1) and tx.involves(2)
        assert not tx.involves(3)

    def test_counterparty(self):
        tx = Transaction(sender=1, receiver=2)
        assert tx.counterparty(1) == 2
        assert tx.counterparty(2) == 1

    def test_counterparty_of_stranger_raises(self):
        with pytest.raises(ValidationError):
            Transaction(sender=1, receiver=2).counterparty(3)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValidationError):
            Transaction(sender=-1, receiver=2)

    def test_rejects_negative_block(self):
        with pytest.raises(ValidationError):
            Transaction(sender=0, receiver=1, block=-1)

    def test_rejects_negative_value(self):
        with pytest.raises(ValidationError):
            Transaction(sender=0, receiver=1, value=-1.0)

    @pytest.mark.parametrize("field", ["value", "fee"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_amounts(self, field, bad):
        with pytest.raises(ValidationError, match="finite"):
            Transaction(sender=0, receiver=1, **{field: bad})

    def test_self_transfer_accounts(self):
        tx = Transaction(sender=3, receiver=3)
        assert tx.accounts == frozenset({3})


class TestTransactionBatch:
    def test_length_and_iteration(self, small_batch):
        assert len(small_batch) == 6
        transactions = list(small_batch)
        assert transactions[0].sender == 0
        assert transactions[-1].receiver == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            TransactionBatch(np.array([1, 2]), np.array([3]))

    def test_negative_ids_rejected(self):
        with pytest.raises(ValidationError):
            TransactionBatch(np.array([-1]), np.array([2]))

    @pytest.mark.parametrize("column", ["values", "fees"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amounts_rejected(self, column, bad):
        """A NaN or infinite amount would slip past a ``min() < 0``
        check and turn the executor's conserved total into NaN."""
        amounts = {"values": np.array([1.0, 2.0]), "fees": np.zeros(2)}
        amounts[column][1] = bad
        with pytest.raises(ValidationError, match="finite"):
            TransactionBatch(np.array([0, 1]), np.array([1, 0]), **amounts)

    def test_blocks_default_to_zero(self):
        batch = TransactionBatch(np.array([0]), np.array([1]))
        assert batch.blocks[0] == 0

    def test_slice_returns_batch(self, small_batch):
        head = small_batch[:2]
        assert isinstance(head, TransactionBatch)
        assert len(head) == 2

    def test_integer_indexing_rejected(self, small_batch):
        with pytest.raises(TypeError):
            small_batch[0]  # noqa: B018

    def test_at(self, small_batch):
        tx = small_batch.at(2)
        assert (tx.sender, tx.receiver, tx.block) == (1, 2, 1)

    def test_empty(self):
        batch = TransactionBatch.empty()
        assert len(batch) == 0
        assert batch.max_account_id() == -1

    def test_from_transactions_roundtrip(self):
        txs = [Transaction(0, 1, block=3), Transaction(2, 3, block=4)]
        batch = TransactionBatch.from_transactions(txs)
        assert len(batch) == 2
        assert batch.at(1).block == 4

    def test_select_mask(self, small_batch):
        picked = small_batch.select(small_batch.senders == 0)
        assert len(picked) == 2

    def test_select_bad_mask_shape(self, small_batch):
        with pytest.raises(ValidationError):
            small_batch.select(np.array([True]))

    def test_concat(self, small_batch):
        combined = small_batch.concat(small_batch)
        assert len(combined) == 12

    def test_concat_many_rejects_mixed_column_presence(self, small_batch):
        """Zero-filling the valueless part would turn its default-amount
        transfers into zero-amount ones, so mixed columns raise."""
        n = len(small_batch)
        valued = TransactionBatch(
            small_batch.senders,
            small_batch.receivers,
            small_batch.blocks,
            values=np.ones(n),
        )
        feed = TransactionBatch(
            small_batch.senders,
            small_batch.receivers,
            small_batch.blocks,
            fees=np.ones(n),
        )
        mixed = ([small_batch, valued], [valued, small_batch], [small_batch, feed])
        for parts in mixed:
            with pytest.raises(ValidationError, match="optional columns"):
                TransactionBatch.concat_many(parts)
        with pytest.raises(ValidationError):
            small_batch.concat(valued)
        # Empty parts carry no rows to fill and never conflict.
        joined = TransactionBatch.concat_many(
            [TransactionBatch.empty(), valued, valued]
        )
        assert joined.values.tolist() == [1.0] * (2 * n)

    def test_involving(self, small_batch):
        own = small_batch.involving(0)
        assert len(own) == 3  # 0->1, 0->2, 4->0
        for tx in own:
            assert tx.involves(0)

    def test_touched_accounts_sorted_unique(self, small_batch):
        touched = small_batch.touched_accounts()
        assert list(touched) == [0, 1, 2, 3, 4]

    def test_touched_accounts_is_a_read_only_memo(self, small_batch):
        touched = small_batch.touched_accounts()
        assert small_batch.touched_accounts() is touched
        with pytest.raises(ValueError):
            touched[0] = 99
        assert list(small_batch.touched_accounts()) == [0, 1, 2, 3, 4]

    def test_derived_batches_have_their_own_touched_accounts(self):
        batch = TransactionBatch(np.array([0, 1, 5]), np.array([1, 2, 6]))
        batch.touched_accounts()  # memoised on the parent first
        picked = batch.select(np.array([True, False, False]))
        assert list(picked.touched_accounts()) == [0, 1]
        assert list(batch[1:].touched_accounts()) == [1, 2, 5, 6]
        other = TransactionBatch(np.array([7]), np.array([8]))
        joined = TransactionBatch.concat_many([batch, other])
        assert list(joined.touched_accounts()) == [0, 1, 2, 5, 6, 7, 8]
        assert list(batch.touched_accounts()) == [0, 1, 2, 5, 6]

    def test_max_account_id(self, small_batch):
        assert small_batch.max_account_id() == 4
