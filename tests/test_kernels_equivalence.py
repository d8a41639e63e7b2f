"""Equivalence property tests: vectorised epoch code vs scalar loops.

The vectorised epoch pipeline is only trustworthy if each array
expression matches a straightforward per-element computation. These
tests pit the metrics' classification and workload, the epoch-metrics
bundle, the batch Pilot and the migration commitment kernel against
per-transaction (or per-client, per-request) reimplementations across
randomized batches and the edge cases that break naive vectorisation:
empty epochs, a single shard, and all-new accounts with no history.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migration_reference import ReferenceChain, select_requests, take_requests
from repro.chain.mapping import ShardMapping
from repro.chain.migration import (
    MigrationRequest,
    MigrationRequestBatch,
    select_migrations_kernel,
)
from repro.chain.transaction import TransactionBatch
from repro.core.interaction import interaction_matrix
from repro.core.pilot import Pilot, batch_pilot_decisions
from repro.sim.metrics import (
    classify,
    cross_shard_ratio,
    epoch_metrics,
    normalized_throughput,
    shard_workloads,
    workload_deviation,
)
from repro.workload.observer import WorkloadOracle


def random_case(seed, n_accounts=None, k=None, n_tx=None):
    """A random (batch, mapping, params) triple."""
    rng = np.random.default_rng(seed)
    n_accounts = n_accounts or int(rng.integers(2, 60))
    k = k or int(rng.integers(1, 9))
    n_tx = n_tx if n_tx is not None else int(rng.integers(0, 200))
    batch = TransactionBatch(
        rng.integers(0, n_accounts, size=n_tx),
        rng.integers(0, n_accounts, size=n_tx),
        np.sort(rng.integers(0, 50, size=n_tx)),
    )
    mapping = ShardMapping.uniform_random(n_accounts, k, rng)
    return batch, mapping


class TestClassifyAndWorkloadKernels:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_classify_matches_scalar(self, seed):
        batch, mapping = random_case(seed)
        sender_shards, receiver_shards, is_cross = classify(batch, mapping)
        for i in range(len(batch)):
            s = mapping.shard_of(int(batch.senders[i]))
            r = mapping.shard_of(int(batch.receivers[i]))
            assert sender_shards[i] == s
            assert receiver_shards[i] == r
            assert is_cross[i] == (s != r)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), eta=st.sampled_from([1.0, 2.0, 5.0]))
    def test_workload_matches_scalar(self, seed, eta):
        batch, mapping = random_case(seed)
        omega = shard_workloads(batch, mapping, eta)
        reference = np.zeros(mapping.k)
        for i in range(len(batch)):
            s = mapping.shard_of(int(batch.senders[i]))
            r = mapping.shard_of(int(batch.receivers[i]))
            if s == r:
                reference[s] += 1.0
            else:
                reference[s] += eta
                reference[r] += eta
        np.testing.assert_allclose(omega, reference)

    def test_single_shard_never_cross(self):
        batch, mapping = random_case(3, k=1)
        _, _, is_cross = classify(batch, mapping)
        assert not is_cross.any()


class TestEpochMetricsKernel:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), eta=st.sampled_from([1.0, 2.0, 10.0]))
    def test_fused_bundle_matches_individual_metrics(self, seed, eta):
        batch, mapping = random_case(seed)
        capacity = max(1.0, len(batch) / mapping.k)
        ratio, deviation, norm_thr, omega = epoch_metrics(
            batch, mapping, eta, capacity
        )
        assert ratio == pytest.approx(cross_shard_ratio(batch, mapping))
        assert deviation == pytest.approx(
            workload_deviation(omega / capacity)
        )
        assert norm_thr == pytest.approx(
            normalized_throughput(batch, mapping, eta, capacity)
        )

    def test_empty_epoch(self):
        batch = TransactionBatch.empty()
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        ratio, deviation, norm_thr, omega = epoch_metrics(
            batch, mapping, 2.0, 10.0
        )
        assert (ratio, deviation, norm_thr) == (0.0, 0.0, 0.0)
        assert np.array_equal(omega, np.zeros(2))

    def test_single_shard_scores_like_unsharded_chain(self):
        batch, mapping = random_case(11, k=1, n_tx=100)
        capacity = float(len(batch))
        _, _, norm_thr, _ = epoch_metrics(batch, mapping, 2.0, capacity)
        assert norm_thr == pytest.approx(1.0)


class TestBatchPilotEquivalence:
    def assert_batch_matches_decide(self, accounts, history, expected, omega,
                                    mapping, eta, beta):
        """The vectorised Pilot equals per-client Pilot.decide exactly."""
        accounts = np.unique(accounts)
        psi_h = interaction_matrix(history, mapping, accounts)
        psi_e = interaction_matrix(expected, mapping, accounts)
        best, gains = batch_pilot_decisions(
            accounts,
            psi_h,
            psi_e,
            omega,
            mapping.shards_of(accounts),
            eta,
            beta,
        )
        pilot = Pilot(eta=eta, beta=beta)
        for row, account in enumerate(accounts):
            decision = pilot.decide(
                int(account), history, expected, omega, mapping
            )
            assert best[row] == decision.best_shard, f"account {account}"
            assert gains[row] == pytest.approx(decision.gain, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        eta=st.sampled_from([1.0, 2.0, 5.0]),
        beta=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_randomized_batches(self, seed, eta, beta):
        history, mapping = random_case(seed)
        expected, _ = random_case(seed + 1, n_accounts=mapping.n_accounts,
                                  k=mapping.k)
        oracle = WorkloadOracle(eta)
        omega = oracle.publish(0, expected, mapping).omega
        accounts = np.union1d(
            history.touched_accounts(), expected.touched_accounts()
        )
        if len(accounts) == 0:
            return
        self.assert_batch_matches_decide(
            accounts, history, expected, omega, mapping, eta, beta
        )

    def test_all_new_accounts_empty_history(self):
        """Clients with no history at all (the onboarding edge case)."""
        rng = np.random.default_rng(5)
        mapping = ShardMapping.uniform_random(30, 4, rng)
        expected = TransactionBatch(
            rng.integers(0, 30, size=60), rng.integers(0, 30, size=60)
        )
        omega = WorkloadOracle(2.0).publish(0, expected, mapping).omega
        self.assert_batch_matches_decide(
            expected.touched_accounts(),
            TransactionBatch.empty(),
            expected,
            omega,
            mapping,
            eta=2.0,
            beta=0.0,
        )

    def test_single_shard_degenerate(self):
        rng = np.random.default_rng(9)
        mapping = ShardMapping(np.zeros(10, dtype=np.int64), k=1)
        batch = TransactionBatch(
            rng.integers(0, 10, size=20), rng.integers(0, 10, size=20)
        )
        omega = WorkloadOracle(2.0).publish(0, batch, mapping).omega
        self.assert_batch_matches_decide(
            batch.touched_accounts(), batch, batch, omega, mapping, 2.0, 0.5
        )


def random_requests(rng, n, n_accounts, k):
    requests = []
    for _ in range(n):
        src, dst = rng.choice(k + 1, size=2, replace=False)
        requests.append(
            MigrationRequest(
                account=int(rng.integers(0, n_accounts)),
                from_shard=int(src),
                to_shard=int(dst),
                gain=float(np.round(rng.normal(), 3)),
            )
        )
    return requests


class TestMigrationSelectionKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        capacity=st.sampled_from([None, 0, 1, 3, 100]),
        fifo=st.booleans(),
    )
    def test_matches_scalar_policy(self, seed, capacity, fifo):
        """Committed sequence identical to the per-request reference;
        rejected set identical."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        n_accounts = int(rng.integers(1, 30))
        mapping = ShardMapping.uniform_random(n_accounts, k, rng)
        requests = random_requests(rng, int(rng.integers(0, 40)), n_accounts + 5, k)

        committed, rejected = select_requests(requests, capacity, mapping, fifo)
        batch = MigrationRequestBatch.from_requests(requests)
        committed_idx, rejected_idx = select_migrations_kernel(
            batch.accounts,
            batch.from_shards,
            batch.to_shards,
            batch.gains,
            mapping.as_array(),
            mapping.k,
            capacity,
            fifo=fifo,
        )

        assert take_requests(batch, committed_idx) == committed
        assert sorted(
            (r.account, r.from_shard, r.to_shard, r.gain)
            for r in take_requests(batch, rejected_idx)
        ) == sorted(
            (r.account, r.from_shard, r.to_shard, r.gain) for r in rejected
        )

    def test_empty_batch(self):
        empty = MigrationRequestBatch.empty()
        committed, rejected = select_migrations_kernel(
            empty.accounts,
            empty.from_shards,
            empty.to_shards,
            empty.gains,
            None,
            None,
            3,
        )
        assert len(committed) == 0
        assert len(rejected) == 0

    def test_apply_batch_equals_sequential_apply(self):
        """The kernel's committed rows applied in one ``assign_many``
        (Mosaic's update) equal a per-request commit and replay."""
        rng = np.random.default_rng(17)
        mapping_a = ShardMapping.uniform_random(20, 4, rng)
        mapping_b = mapping_a.copy()
        requests = random_requests(np.random.default_rng(3), 25, 20, 4)
        # Align from_shards with the mapping so some requests are fresh.
        requests = [
            MigrationRequest(
                account=r.account,
                from_shard=mapping_a.shard_of(r.account),
                to_shard=r.to_shard
                if r.to_shard != mapping_a.shard_of(r.account)
                else (r.to_shard + 1) % 4,
                gain=r.gain,
            )
            for r in requests
            if r.account < 20
        ]
        reference = ReferenceChain()
        reference.submit(requests)
        reference.commit_epoch(capacity=5, mapping=mapping_a)
        reference.reconfigure(mapping_a)
        batch = MigrationRequestBatch.from_requests(requests)
        committed, _ = select_migrations_kernel(
            batch.accounts,
            batch.from_shards,
            batch.to_shards,
            batch.gains,
            mapping_b.as_array(),
            mapping_b.k,
            5,
        )
        mapping_b.assign_many(batch.accounts[committed], batch.to_shards[committed])
        assert mapping_a == mapping_b

    def test_kernel_without_mapping_skips_stale_filter(self):
        committed, rejected = select_migrations_kernel(
            np.array([1, 1]),
            np.array([0, 0]),
            np.array([1, 2]),
            np.array([0.5, 2.0]),
            None,
            None,
            None,
        )
        assert committed.tolist() == [1]
        assert rejected.tolist() == [0]
