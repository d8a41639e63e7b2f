"""Unit and property tests for interaction distributions (Eq. 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pilot_reference import reference_interaction_matrix

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.core.interaction import (
    fuse_distributions,
    interaction_distribution,
    interaction_matrix,
)
from repro.errors import ConfigurationError, ValidationError


class TestInteractionDistribution:
    def test_counts_counterparty_shards(self, small_batch, small_mapping):
        # Account 0 transacts with 1 (shard 0), 2 (shard 1), 4 (shard 0).
        psi = interaction_distribution(0, small_batch, small_mapping)
        assert list(psi) == [2.0, 1.0]

    def test_account_without_transactions(self, small_batch, small_mapping):
        psi = interaction_distribution(4, small_batch[:1], small_mapping)
        assert (psi == 0).all()

    def test_superset_batches_allowed(self, small_batch, small_mapping):
        """Eq. 1 over a full batch equals Eq. 1 over T_nu only."""
        own = small_batch.involving(3)
        full = interaction_distribution(3, small_batch, small_mapping)
        subset = interaction_distribution(3, own, small_mapping)
        assert np.array_equal(full, subset)

    def test_rejects_negative_account(self, small_batch, small_mapping):
        with pytest.raises(ValidationError):
            interaction_distribution(-1, small_batch, small_mapping)

    def test_total_equals_transaction_count(self, small_batch, small_mapping):
        psi = interaction_distribution(2, small_batch, small_mapping)
        assert psi.sum() == len(small_batch.involving(2))


class TestInteractionMatrix:
    def test_matches_scalar_rows(self, small_batch, small_mapping):
        accounts = np.array([0, 2, 4])
        matrix = interaction_matrix(small_batch, small_mapping, accounts)
        for row, account in enumerate(accounts):
            expected = interaction_distribution(
                int(account), small_batch, small_mapping
            )
            assert np.array_equal(matrix[row], expected), account

    def test_empty_inputs(self, small_mapping):
        matrix = interaction_matrix(
            TransactionBatch.empty(), small_mapping, np.array([0, 1])
        )
        assert matrix.shape == (2, 2)
        assert (matrix == 0).all()

    def test_rejects_unsorted_accounts(self, small_batch, small_mapping):
        with pytest.raises(ValidationError):
            interaction_matrix(small_batch, small_mapping, np.array([2, 0]))

    def test_rejects_duplicate_accounts(self, small_batch, small_mapping):
        with pytest.raises(ValidationError):
            interaction_matrix(small_batch, small_mapping, np.array([0, 0]))


@settings(max_examples=40, deadline=None)
@given(
    n_tx=st.integers(1, 60),
    k=st.integers(1, 6),
    seed=st.integers(0, 500),
)
def test_matrix_equals_scalar_for_all_accounts(n_tx, k, seed):
    """Property: vectorised Eq. 1 == per-account Eq. 1, always."""
    rng = np.random.default_rng(seed)
    n_accounts = 12
    senders = rng.integers(0, n_accounts, size=n_tx)
    receivers = (senders + 1 + rng.integers(0, n_accounts - 1, size=n_tx)) % n_accounts
    batch = TransactionBatch(senders, receivers)
    mapping = ShardMapping(
        rng.integers(0, k, size=n_accounts, dtype=np.int64), k
    )
    accounts = np.arange(n_accounts)
    matrix = interaction_matrix(batch, mapping, accounts)
    for account in accounts:
        expected = interaction_distribution(int(account), batch, mapping)
        assert np.array_equal(matrix[account], expected)


@settings(max_examples=200, deadline=None)
@given(
    n_tx=st.integers(0, 60),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    memo_first=st.booleans(),
)
def test_matrix_equals_per_transaction_keying(n_tx, k, seed, memo_first):
    """Property: counting Psi_e from the batch's edge table equals the
    per-transaction keying it replaced, byte for byte, with
    self-transfers, repeated pairs and accounts outside ``accounts``."""
    rng = np.random.default_rng(seed)
    n_accounts = 12
    batch = TransactionBatch(
        rng.integers(0, n_accounts, size=n_tx),
        rng.integers(0, n_accounts, size=n_tx),
    )
    mapping = ShardMapping(rng.integers(0, k, size=n_accounts), k)
    accounts = np.flatnonzero(rng.random(n_accounts + 3) < 0.5)
    if memo_first:
        batch.directed_edges()
    matrix = interaction_matrix(batch, mapping, accounts[accounts < n_accounts])
    expected = reference_interaction_matrix(
        batch, mapping, accounts[accounts < n_accounts]
    )
    assert matrix.dtype == expected.dtype
    assert matrix.shape == expected.shape
    assert matrix.tobytes() == expected.tobytes()


def test_matrix_builds_and_reads_the_batch_memo(small_batch, small_mapping):
    """Psi_e and Pilot's history absorb key a batch's pairs once."""
    assert small_batch._edges is None
    interaction_matrix(small_batch, small_mapping, np.array([0, 1]))
    edges = small_batch._edges
    assert edges is not None
    interaction_matrix(small_batch, small_mapping, np.array([2, 3]))
    assert small_batch._edges is edges


class TestFusion:
    def test_beta_zero_returns_history(self):
        h, e = np.array([1.0, 2.0]), np.array([5.0, 5.0])
        assert np.array_equal(fuse_distributions(h, e, 0.0), h)

    def test_beta_one_returns_expected(self):
        h, e = np.array([1.0, 2.0]), np.array([5.0, 5.0])
        assert np.array_equal(fuse_distributions(h, e, 1.0), e)

    def test_linear_interpolation(self):
        h, e = np.array([0.0, 4.0]), np.array([4.0, 0.0])
        fused = fuse_distributions(h, e, 0.25)
        assert list(fused) == [1.0, 3.0]

    def test_works_on_matrices(self):
        h = np.ones((3, 2))
        e = np.zeros((3, 2))
        fused = fuse_distributions(h, e, 0.5)
        assert fused.shape == (3, 2)
        assert (fused == 0.5).all()

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            fuse_distributions(np.ones(2), np.ones(3), 0.5)

    def test_rejects_bad_beta(self):
        with pytest.raises(ConfigurationError):
            fuse_distributions(np.ones(2), np.ones(2), 1.5)

    @settings(max_examples=30, deadline=None)
    @given(beta=st.floats(0.0, 1.0))
    def test_fusion_preserves_total_mass_bounds(self, beta):
        """Property: fused totals lie between the two source totals."""
        h = np.array([3.0, 1.0, 0.0])
        e = np.array([0.0, 2.0, 8.0])
        fused = fuse_distributions(h, e, beta)
        low, high = sorted([h.sum(), e.sum()])
        assert low - 1e-9 <= fused.sum() <= high + 1e-9
        assert (fused >= 0).all()
