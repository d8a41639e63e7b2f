"""Unit and property tests for the evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.mapping import ShardMapping
from repro.chain.transaction import TransactionBatch
from repro.errors import UnknownAccountError, ValidationError
from repro.sim.metrics import (
    classify,
    cross_shard_ratio,
    epoch_metrics,
    normalized_throughput,
    shard_workloads,
    throughput,
    workload_deviation,
)
from repro.workload.observer import WorkloadOracle


class TestClassify:
    def test_intra_and_cross(self, small_batch, small_mapping):
        sender_shards, receiver_shards, is_cross = classify(
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
        _, _, is_cross = classify(batch, mapping)
        assert not is_cross[0]

    def test_rejects_accounts_beyond_the_mapping(self, small_mapping):
        batch = TransactionBatch(np.array([100]), np.array([0]))
        with pytest.raises(UnknownAccountError):
            classify(batch, small_mapping)


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda b, m: epoch_metrics(b, m, 2.0, 10.0),
        cross_shard_ratio,
        lambda b, m: throughput(b, m, 2.0, 10.0),
        lambda b, m: shard_workloads(b, m, 2.0),
        lambda b, m: WorkloadOracle(2.0).publish(0, b, m),
    ],
    ids=[
        "epoch_metrics",
        "cross_shard_ratio",
        "throughput",
        "shard_workloads",
        "WorkloadOracle.publish",
    ],
)
def test_batch_beyond_the_mapping_is_unknown_account(entry_point):
    """Every entry point raises the same error, naming the account."""
    batch = TransactionBatch(np.array([0, 7]), np.array([1, 2]))
    mapping = ShardMapping(np.array([0, 1, 0, 1]), k=2)
    with pytest.raises(UnknownAccountError, match="unknown account: 7") as info:
        entry_point(batch, mapping)
    assert info.value.account == 7


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


class TestCrossShardRatio:
    def test_known_value(self, small_batch, small_mapping):
        assert cross_shard_ratio(small_batch, small_mapping) == pytest.approx(0.5)

    def test_empty_batch(self, small_mapping):
        assert cross_shard_ratio(TransactionBatch.empty(), small_mapping) == 0.0

    def test_single_shard_never_cross(self, small_batch):
        mapping = ShardMapping.constant(5, 1)
        assert cross_shard_ratio(small_batch, mapping) == 0.0


class TestWorkloadDeviation:
    def test_uniform_is_zero(self):
        assert workload_deviation(np.array([4.0, 4.0, 4.0])) == 0.0

    def test_paper_formula_value(self):
        # omega = [2, 6]: mean 4, sum sq dev = 8, k*mean = 8 -> sqrt(1).
        assert workload_deviation(np.array([2.0, 6.0])) == pytest.approx(1.0)

    def test_all_zero(self):
        assert workload_deviation(np.zeros(4)) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            workload_deviation(np.array([-1.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            workload_deviation(np.zeros(0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            workload_deviation(np.array([bad, 1.0]))

    def test_more_imbalance_higher_deviation(self):
        mild = workload_deviation(np.array([4.0, 5.0, 4.5, 4.5]))
        harsh = workload_deviation(np.array([1.0, 8.0, 4.5, 4.5]))
        assert harsh > mild


class TestThroughput:
    def test_uncongested_processes_everything(self, small_batch, small_mapping):
        completed = throughput(small_batch, small_mapping, eta=2.0, capacity=1e6)
        assert completed == pytest.approx(len(small_batch))

    def test_congestion_throttles(self, small_batch, small_mapping):
        completed = throughput(small_batch, small_mapping, eta=2.0, capacity=2.0)
        assert completed < len(small_batch)
        assert completed > 0

    def test_rejects_bad_capacity(self, small_batch, small_mapping):
        with pytest.raises(ValidationError):
            throughput(small_batch, small_mapping, eta=2.0, capacity=0)

    def test_empty_batch(self, small_mapping):
        assert throughput(TransactionBatch.empty(), small_mapping, 2.0, 1.0) == 0.0

    def test_non_sharded_baseline_is_one(self):
        """k=1 with lambda=|T|/1: normalized throughput is exactly 1."""
        n = 40
        batch = TransactionBatch(
            np.arange(n) % 10, (np.arange(n) + 1) % 10
        )
        mapping = ShardMapping.constant(10, 1)
        assert normalized_throughput(batch, mapping, 2.0, float(n)) == pytest.approx(1.0)

    def test_perfect_sharding_reaches_k(self):
        """All-intra, perfectly balanced load across k=4 -> Lambda/lambda = 4."""
        k, per_shard = 4, 10
        senders, receivers, shards = [], [], []
        for shard in range(k):
            base = shard * 2
            for _ in range(per_shard):
                senders.append(base)
                receivers.append(base + 1)
        batch = TransactionBatch(np.array(senders), np.array(receivers))
        mapping = ShardMapping(np.arange(2 * k) // 2, k)
        capacity = len(batch) / k
        assert normalized_throughput(batch, mapping, 2.0, capacity) == pytest.approx(k)

    def test_cross_shard_needs_both_shards(self):
        """One overloaded shard throttles cross transactions into it."""
        # 20 intra txs on shard 0 (accounts 0,1) + 5 cross (2 -> 0).
        senders = np.array([0] * 20 + [2] * 5)
        receivers = np.array([1] * 20 + [0] * 5)
        batch = TransactionBatch(senders, receivers)
        mapping = ShardMapping(np.array([0, 0, 1]), k=2)
        completed = throughput(batch, mapping, eta=2.0, capacity=10.0)
        # Shard 0 workload = 20 + 2*5 = 30 -> fraction 1/3; shard 1 = 10
        # -> fraction 1. Intra complete at 1/3 (20/3), cross at min(1/3,1).
        assert completed == pytest.approx(20 / 3 + 5 / 3)


@settings(max_examples=60, deadline=None)
@given(
    n_tx=st.integers(1, 80),
    k=st.integers(1, 8),
    eta=st.sampled_from([1.0, 2.0, 5.0]),
    seed=st.integers(0, 300),
)
def test_throughput_bounds(n_tx, k, eta, seed):
    """Property: 0 <= Lambda <= |T| and Lambda/lambda <= k."""
    rng = np.random.default_rng(seed)
    n_accounts = 20
    senders = rng.integers(0, n_accounts, size=n_tx)
    receivers = (senders + 1 + rng.integers(0, n_accounts - 1, size=n_tx)) % n_accounts
    batch = TransactionBatch(senders, receivers)
    mapping = ShardMapping(rng.integers(0, k, size=n_accounts), k)
    capacity = max(1.0, n_tx / k)
    completed = throughput(batch, mapping, eta, capacity)
    assert 0.0 <= completed <= n_tx + 1e-9
    assert normalized_throughput(batch, mapping, eta, capacity) <= k + 1e-9


def test_epoch_metrics_bundle(small_batch, small_mapping):
    ratio, deviation, norm_thr, omega = epoch_metrics(
        small_batch, small_mapping, eta=2.0, capacity=10.0
    )
    assert ratio == pytest.approx(0.5)
    assert deviation >= 0
    assert norm_thr > 0
    assert omega.shape == (2,)
