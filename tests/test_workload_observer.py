"""Unit tests for the workload oracle."""

import numpy as np
import pytest

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.errors import ValidationError
from repro.workload.observer import WorkloadOracle, WorkloadSnapshot


class TestSnapshot:
    def test_properties(self):
        snapshot = WorkloadSnapshot(epoch=2, omega=np.array([3.0, 1.0]))
        assert snapshot.k == 2
        assert snapshot.epoch == 2

    def test_rejects_negative_workloads(self):
        with pytest.raises(ValidationError):
            WorkloadSnapshot(epoch=0, omega=np.array([-1.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_workloads(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            WorkloadSnapshot(epoch=0, omega=np.array([bad, 1.0]))

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            WorkloadSnapshot(epoch=0, omega=np.ones((2, 2)))


class TestOracle:
    def test_publish_uses_paper_formula(self, small_batch, small_mapping):
        oracle = WorkloadOracle(eta=2.0)
        snapshot = oracle.publish(0, small_batch, small_mapping)
        # 2 intra shard 0, 1 intra shard 1, 3 cross (eta=2 on both).
        assert snapshot.omega[0] == 2 + 2.0 * 3
        assert snapshot.omega[1] == 1 + 2.0 * 3

    def test_latest_tracks_last_publish(self, small_batch, small_mapping):
        oracle = WorkloadOracle(eta=2.0)
        assert oracle.latest is None
        oracle.publish(0, small_batch, small_mapping)
        oracle.publish(1, small_batch, small_mapping)
        assert oracle.latest is not None
        assert oracle.latest.epoch == 1

    def test_rejects_bad_eta(self):
        with pytest.raises(ValidationError):
            WorkloadOracle(eta=0.0)

    def test_empty_mempool_gives_zero_omega(self, small_mapping):
        oracle = WorkloadOracle(eta=2.0)
        snapshot = oracle.publish(0, TransactionBatch.empty(), small_mapping)
        assert (snapshot.omega == 0).all()
