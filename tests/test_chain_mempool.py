"""Unit tests for mempool workload classification."""

import numpy as np
import pytest

from repro.chain.mapping import ShardMapping
from repro.chain.mempool import classify_transactions, shard_workloads
from repro.chain.transaction import TransactionBatch
from repro.errors import UnknownAccountError, ValidationError


class TestClassify:
    def test_intra_and_cross(self, small_batch, small_mapping):
        sender_shards, receiver_shards, is_cross = classify_transactions(
            small_batch, small_mapping
        )
        # mapping [0,0,1,1,0]: 0->1 intra, 0->2 cross, 1->2 cross,
        # 2->3 intra, 3->4 cross, 4->0 intra
        assert list(is_cross) == [False, True, True, False, True, False]
        assert list(sender_shards) == [0, 0, 0, 1, 1, 0]
        assert list(receiver_shards) == [0, 1, 1, 1, 0, 0]

    def test_self_transfer_is_intra(self):
        batch = TransactionBatch(np.array([1]), np.array([1]))
        mapping = ShardMapping(np.array([0, 1]), k=2)
        _, _, is_cross = classify_transactions(batch, mapping)
        assert not is_cross[0]

    def test_rejects_accounts_beyond_the_mapping(self, small_mapping):
        batch = TransactionBatch(np.array([100]), np.array([0]))
        with pytest.raises(UnknownAccountError):
            classify_transactions(batch, small_mapping)


class TestShardWorkloads:
    def test_paper_formula(self, small_batch, small_mapping):
        # 2 intra in shard 0, 1 intra in shard 1; 3 cross touching both.
        omega = shard_workloads(small_batch, small_mapping, eta=2.0)
        assert omega[0] == 2 + 2.0 * 3
        assert omega[1] == 1 + 2.0 * 3

    def test_eta_one_counts_transactions(self, small_batch, small_mapping):
        omega = shard_workloads(small_batch, small_mapping, eta=1.0)
        # Total = intra + 2 * cross at eta=1 (cross counted in 2 shards).
        assert omega.sum() == 3 + 2 * 3

    def test_rejects_eta_below_one(self, small_batch, small_mapping):
        with pytest.raises(ValidationError):
            shard_workloads(small_batch, small_mapping, eta=0.5)

    def test_empty_batch_zero_workloads(self, small_mapping):
        omega = shard_workloads(TransactionBatch.empty(), small_mapping, 2.0)
        assert (omega == 0).all()
