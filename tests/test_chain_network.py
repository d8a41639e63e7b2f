"""Unit tests for the Table VI overhead model."""

import pytest

from repro.chain.network import (
    FRAMEWORK_GRAPH,
    FRAMEWORK_HASH,
    FRAMEWORK_MOSAIC,
    MR_RECORD_BYTES,
    OverheadModel,
)
from repro.chain.transaction import TX_RECORD_BYTES
from repro.errors import ConfigurationError


@pytest.fixture
def model():
    return OverheadModel(
        total_transactions=1_000_000,
        total_accounts=100_000,
        k=16,
        window_transactions=10_000,
        committed_migrations=5_000,
        window_migrations=100,
    )


class TestFormulas:
    def test_graph_based_stores_full_ledger(self, model):
        estimate = model.graph_based()
        assert estimate.storage_bytes == 1_000_000 * TX_RECORD_BYTES
        assert estimate.communication_bytes == 10_000 * TX_RECORD_BYTES
        assert estimate.computation_input_bytes == estimate.storage_bytes

    def test_mosaic_stores_shard_share_plus_migrations(self, model):
        estimate = model.mosaic()
        expected_storage = (
            1_000_000 * TX_RECORD_BYTES / 16 + 5_000 * MR_RECORD_BYTES
        )
        assert estimate.storage_bytes == pytest.approx(expected_storage)
        expected_comm = 10_000 * TX_RECORD_BYTES / 16 + 100 * MR_RECORD_BYTES
        assert estimate.communication_bytes == pytest.approx(expected_comm)

    def test_hash_based_stores_shard_share(self, model):
        estimate = model.hash_based()
        assert estimate.storage_bytes == pytest.approx(
            1_000_000 * TX_RECORD_BYTES / 16
        )

    def test_ordering_matches_table_vi(self, model):
        """Graph > Mosaic > Hash on storage; Mosaic ~ Hash << Graph."""
        graph = model.graph_based()
        mosaic = model.mosaic()
        hashed = model.hash_based()
        assert graph.storage_bytes > mosaic.storage_bytes > hashed.storage_bytes
        assert graph.communication_bytes > mosaic.communication_bytes
        assert mosaic.communication_bytes > hashed.communication_bytes
        # Mosaic's overhead is bounded by ~2/k of graph-based.
        assert mosaic.storage_bytes < 2 * graph.storage_bytes / 16 + 5_000 * MR_RECORD_BYTES

    def test_client_input_is_tiny(self, model):
        client_bytes = model.client_input_bytes()
        assert client_bytes < model.graph_based().computation_input_bytes / 1_000

    def test_average_client_transactions(self, model):
        assert model.average_client_transactions() == pytest.approx(
            2 * 1_000_000 / 100_000
        )

    def test_all_frameworks_keys(self, model):
        estimates = model.all_frameworks()
        assert set(estimates) == {
            FRAMEWORK_GRAPH,
            FRAMEWORK_MOSAIC,
            FRAMEWORK_HASH,
        }


class TestValidation:
    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError):
            OverheadModel(-1, 10, 4, 0)

    def test_rejects_zero_accounts(self):
        with pytest.raises(ConfigurationError):
            OverheadModel(10, 0, 4, 0)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            OverheadModel(10, 10, 0, 0)
