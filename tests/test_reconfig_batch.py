"""Columnar reconfiguration path: beacon batches, grouped state moves.

Three contracts are pinned here:

* the beacon's commitment round (``submit_batch`` + ``commit_epoch``)
  is element-for-element equivalent to the per-request reference in
  ``tests/migration_reference.py`` — same committed set, same
  commitment order, same stale/dedup/capacity decisions;
* ``EpochReconfigurator.run`` moves exactly the state the per-request
  reference moves (mappings, state roots, applied counts), on the
  dense store and on the dict-store oracle of ``state_reference``, and
  with per-epoch compaction on the dense store;
* value is conserved at every block boundary across reconfigurations,
  and relay deposits follow a receiver that migrated while the receipt
  was in flight (receipt forwarding).

``MigrationRequestBatch.validate`` edge behaviour rides along: bad rows
raise the same typed messages the scalar dataclass raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migration_reference import ReferenceChain, apply_committed, take_requests
from state_reference import STATE_BACKENDS, make_registry
from repro.chain.beacon import BeaconChain
from repro.chain.crossshard import CrossShardExecutor
from repro.chain.epoch import EpochReconfigurator
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequest, MigrationRequestBatch
from repro.chain.state import StateRegistry
from repro.chain.transaction import TransactionBatch
from repro.errors import MigrationError

K = 4
N_ACCOUNTS = 20


def _request_rows(draw_rows):
    return [
        (account, from_shard, to_shard if to_shard != from_shard else (to_shard + 1) % (K + 1), gain)
        for account, from_shard, to_shard, gain in draw_rows
    ]


_ROWS = st.lists(
    st.tuples(
        st.integers(0, N_ACCOUNTS + 4),  # may exceed the mapping (stale)
        st.integers(0, K - 1),
        st.integers(0, K),  # may exceed k (stale)
        st.integers(0, 6),  # integer gains force exact ties
    ),
    max_size=30,
)


class TestBeaconBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=_ROWS,
        capacity=st.one_of(st.none(), st.integers(0, 12)),
        use_mapping=st.booleans(),
        seed=st.integers(0, 100),
    )
    def test_batch_commit_matches_scalar_commit(
        self, rows, capacity, use_mapping, seed
    ):
        rows = _request_rows(rows)
        rng = np.random.default_rng(seed)
        mapping_array = rng.integers(0, K, size=N_ACCOUNTS)

        def mapping():
            return ShardMapping(mapping_array.copy(), k=K) if use_mapping else None

        requests = [
            MigrationRequest(
                account=a, from_shard=f, to_shard=t, gain=float(g), epoch=0
            )
            for a, f, t, g in rows
        ]
        reference = ReferenceChain()
        reference.submit(requests)
        committed, rejected = reference.commit_epoch(capacity, mapping())

        beacon = BeaconChain()
        beacon.submit_batch(MigrationRequestBatch.from_requests(requests))
        committed_batch = beacon.commit_epoch(
            epoch=0, capacity=capacity, mapping=mapping()
        )

        # Committed set AND order match exactly; every other proposal
        # is the reference's rejected set.
        assert take_requests(committed_batch) == committed
        assert len(committed_batch) + len(rejected) == len(requests)

        # The committed log the miners sync from agrees too.
        assert [
            r
            for batch in beacon.iter_committed_batches(0)
            for r in take_requests(batch)
        ] == committed
        if use_mapping:
            # (Without the stale filter, out-of-range target shards can
            # commit; applying those raises in both paths alike.)
            reference_map = ShardMapping(mapping_array.copy(), k=K)
            beacon_map = ShardMapping(mapping_array.copy(), k=K)
            applied = reference.reconfigure(reference_map)
            assert apply_committed(beacon, beacon_map) == applied
            assert reference_map == beacon_map

    def test_pure_batch_round_preserves_proposal_epoch(self):
        beacon = BeaconChain()
        beacon.submit_batch(
            MigrationRequestBatch(
                np.array([0]), np.array([0]), np.array([1]), epoch=3
            )
        )
        committed = beacon.commit_epoch(epoch=7)
        assert committed.epoch == 3
        assert take_requests(committed)[0].epoch == 3
        assert beacon.blocks[-1].header.epoch == 7

    def test_submit_batch_rejects_non_batches(self):
        beacon = BeaconChain()
        with pytest.raises(MigrationError, match="MigrationRequestBatch"):
            beacon.submit_batch([MigrationRequest(0, 0, 1)])  # type: ignore[arg-type]

    def test_batches_since_returns_per_block_batches(self):
        beacon = BeaconChain()
        beacon.submit_batch(
            MigrationRequestBatch(np.array([0]), np.array([0]), np.array([1]))
        )
        beacon.commit_epoch(epoch=0)
        beacon.submit_batch(
            MigrationRequestBatch(np.array([1]), np.array([1]), np.array([0]))
        )
        beacon.commit_epoch(epoch=1)
        batches = list(beacon.iter_committed_batches(0))
        assert [len(b) for b in batches] == [1, 1]
        assert batches[0].accounts.tolist() == [0]
        assert batches[1].accounts.tolist() == [1]
        assert [len(b) for b in beacon.iter_committed_batches(1)] == [1]

    def test_empty_round_still_appends_a_block(self):
        beacon = BeaconChain()
        beacon.submit_batch(MigrationRequestBatch.empty())
        assert len(beacon.commit_epoch(epoch=0)) == 0
        assert len(beacon) == 1
        beacon.verify()


def _build_world(seed, backend, n_accounts=40, relay_delay=2, compact_slack=None):
    rng = np.random.default_rng(seed)
    mapping = ShardMapping(rng.integers(0, K, size=n_accounts), k=K)
    registry = make_registry(backend, K, n_accounts=n_accounts)
    executor = CrossShardExecutor(
        registry, mapping, relay_delay_blocks=relay_delay
    )
    executor.fund_many(
        np.arange(n_accounts, dtype=np.int64),
        rng.integers(0, 50, size=n_accounts).astype(np.float64),
    )
    beacon = BeaconChain()
    reconfigurator = EpochReconfigurator(
        beacon,
        registry,
        executor.network_transport.bus,
        compact_slack=compact_slack,
    )
    return rng, mapping, registry, executor, beacon, reconfigurator


def _run_world(
    seed, backend, epochs, reference, capacity=None, compact_slack=None
):
    """Drive transfers + repartitions for ``epochs`` epochs.

    ``reference=True`` commits and applies the migrations through the
    per-request :class:`ReferenceChain`; otherwise through
    ``BeaconChain`` + ``EpochReconfigurator``. Both consume the same
    RNG stream, so equal seeds give equal proposals. Receipts relay
    with a two-block delay, so transfers are in flight at every
    reconfiguration.
    """
    n_accounts = 40
    rng, mapping, registry, executor, beacon, reconfigurator = _build_world(
        seed, backend, n_accounts, compact_slack=compact_slack
    )
    chain = ReferenceChain(registry)
    block = 0
    applied = []
    for epoch in range(epochs):
        n_tx = 12
        executor.execute_batch(
            TransactionBatch(
                rng.integers(0, n_accounts, size=n_tx),
                rng.integers(0, n_accounts, size=n_tx),
                np.full(n_tx, block),
                rng.integers(0, 5, size=n_tx).astype(np.float64),
            )
        )
        block += 1
        # A repartition proposal for a random subset.
        n_moves = int(rng.integers(1, n_accounts))
        movers = rng.choice(n_accounts, size=n_moves, replace=False)
        movers.sort()
        from_shards = mapping.as_array()[movers].copy()
        targets = (from_shards + rng.integers(1, K, size=n_moves)) % K
        gains = rng.random(n_moves)
        if reference:
            chain.submit(
                [
                    MigrationRequest(
                        account=a, from_shard=f, to_shard=t, gain=g
                    )
                    for a, f, t, g in zip(
                        movers.tolist(),
                        from_shards.tolist(),
                        targets.tolist(),
                        gains.tolist(),
                    )
                ]
            )
            chain.commit_epoch(capacity, mapping)
            applied.append(chain.reconfigure(mapping))
        else:
            beacon.submit_batch(
                MigrationRequestBatch(movers, from_shards, targets, gains)
            )
            beacon.commit_epoch(epoch=epoch, capacity=capacity, mapping=mapping)
            applied.append(reconfigurator.run(epoch, mapping))
    executor.settle_all(from_block=block)
    return (
        mapping.as_array().tolist(),
        [registry.store_of(s).state_root() for s in range(K)],
        applied,
        executor.total_value(),
    )


class TestReconfiguratorBatchEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 500),
        backend=st.sampled_from(STATE_BACKENDS),
        epochs=st.integers(1, 3),
        capacity=st.one_of(st.none(), st.integers(0, 30)),
    )
    def test_batched_run_matches_reference_run(
        self, seed, backend, epochs, capacity
    ):
        assert _run_world(
            seed, backend, epochs, reference=False, capacity=capacity
        ) == _run_world(seed, backend, epochs, reference=True, capacity=capacity)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500), epochs=st.integers(1, 3))
    def test_compacting_dense_run_matches_dict_reference(self, seed, epochs):
        """Batched moves + per-epoch compaction on the dense store land
        on the same mapping, state roots, applied counts and total value
        as the per-request reference on the dict store."""
        assert _run_world(
            seed, "dense", epochs, reference=False, compact_slack=0.0
        ) == _run_world(seed, "dict", epochs, reference=True)

    def test_wrong_gain_stream_cannot_leak_between_paths(self):
        """The equivalence tests above feed both paths the same RNG
        stream; sanity-check the stream alignment by rebuilding one
        world twice and expecting identical roots."""
        first = _build_world(7, "dense")
        second = _build_world(7, "dense")
        assert [
            first[2].store_of(s).state_root() for s in range(K)
        ] == [second[2].store_of(s).state_root() for s in range(K)]


class TestConservationAcrossBatchedReconfigurations:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 300),
        backend=st.sampled_from(STATE_BACKENDS),
    )
    def test_value_conserved_at_every_block_boundary(self, seed, backend):
        n_accounts = 50
        rng, mapping, registry, executor, beacon, reconfigurator = (
            _build_world(seed, backend, n_accounts)
        )
        genesis = executor.total_value()
        block = 0
        for epoch in range(4):
            for _ in range(3):
                n_tx = int(rng.integers(1, 25))
                executor.execute_batch(
                    TransactionBatch(
                        rng.integers(0, n_accounts, size=n_tx),
                        rng.integers(0, n_accounts, size=n_tx),
                        np.full(n_tx, block),
                        rng.integers(0, 6, size=n_tx).astype(np.float64),
                    )
                )
                block += 1
                assert executor.total_value() == pytest.approx(
                    genesis, abs=1e-9, rel=0
                ), f"value drift after block {block - 1}"
            target = rng.integers(0, K, size=n_accounts, dtype=np.int64)
            moved = np.flatnonzero(target != mapping.as_array())
            beacon.submit_batch(
                MigrationRequestBatch(
                    moved,
                    mapping.as_array()[moved].copy(),
                    target[moved],
                    epoch=epoch,
                )
            )
            beacon.commit_epoch(epoch=epoch, capacity=None, mapping=mapping)
            reconfigurator.run(epoch, mapping)
            assert np.array_equal(mapping.as_array(), target)
            assert executor.total_value() == pytest.approx(
                genesis, abs=1e-9, rel=0
            ), f"value drift after reconfiguration of epoch {epoch}"
        executor.settle_all(from_block=block)
        assert executor.total_value() == pytest.approx(genesis, abs=1e-9, rel=0)
        assert executor.in_flight_value() == 0.0


class TestBatchValidateMessages:
    """Batch and object paths are behaviourally identical at the edges."""

    @pytest.mark.parametrize(
        "rows, scalar_kwargs",
        [
            (([-3], [0], [1]), dict(account=-3, from_shard=0, to_shard=1)),
            (([2], [-1], [1]), dict(account=2, from_shard=-1, to_shard=1)),
            (([2], [0], [-4]), dict(account=2, from_shard=0, to_shard=-4)),
            (([7], [3], [3]), dict(account=7, from_shard=3, to_shard=3)),
        ],
    )
    def test_batch_raises_the_scalar_message(self, rows, scalar_kwargs):
        with pytest.raises(MigrationError) as scalar_error:
            MigrationRequest(**scalar_kwargs)
        with pytest.raises(MigrationError) as batch_error:
            MigrationRequestBatch(
                np.array(rows[0]), np.array(rows[1]), np.array(rows[2])
            )
        assert str(batch_error.value) == str(scalar_error.value)

    def test_first_offending_row_reported(self):
        with pytest.raises(
            MigrationError, match=r"account 5 stays on shard 2"
        ):
            MigrationRequestBatch(
                np.array([1, 5, -1]),
                np.array([0, 2, 0]),
                np.array([1, 2, 1]),
            )

    def test_from_requests_rejects_mixed_epochs(self):
        """A batch has one epoch column: converting requests proposed in
        different epochs must fail, not relabel every row."""
        requests = [
            MigrationRequest(account=0, from_shard=0, to_shard=1, epoch=2),
            MigrationRequest(account=1, from_shard=0, to_shard=1, epoch=5),
        ]
        with pytest.raises(MigrationError, match=r"epochs \[2, 5\]"):
            MigrationRequestBatch.from_requests(requests)
        same_epoch = MigrationRequestBatch.from_requests(requests[:1])
        assert same_epoch.epoch == 2

    def test_take_batch_and_concat_round_trip(self):
        batch = MigrationRequestBatch(
            np.array([3, 1, 2]),
            np.array([0, 1, 2]),
            np.array([1, 2, 0]),
            np.array([0.5, 1.5, 2.5]),
            epoch=4,
        )
        sliced = batch.take_batch(np.array([2, 0]))
        assert sliced.accounts.tolist() == [2, 3]
        assert sliced.epoch == 4
        merged = MigrationRequestBatch.concat([batch, sliced], epoch=4)
        assert len(merged) == 5
        assert merged.accounts.tolist() == [3, 1, 2, 2, 3]
        # Digests commit to content.
        assert batch.content_digest() != sliced.content_digest()
        assert (
            batch.content_digest()
            == MigrationRequestBatch.concat([batch], epoch=4).content_digest()
        )


class TestReceiptForwarding:
    """Relay deposits follow a receiver that migrated in flight."""

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    @pytest.mark.parametrize("receiver_funded", [True, False])
    def test_deposit_lands_on_current_shard(self, backend, receiver_funded):
        # An unfunded receiver has no state for the migration to move:
        # the deposit must still create it on its current phi shard.
        mapping = ShardMapping(np.array([0, 1, 2, 0]), k=3)
        registry = make_registry(backend, 3, n_accounts=4)
        executor = CrossShardExecutor(registry, mapping, relay_delay_blocks=3)
        executor.fund(0, 10.0)
        opening = 5.0 if receiver_funded else 0.0
        if receiver_funded:
            executor.fund(1, opening)
        genesis = executor.total_value()

        # Block 0: account 0 (shard 0) pays account 1 (shard 1) — the
        # receipt targets shard 1 at issue time.
        executor.execute_batch(
            TransactionBatch(
                np.array([0]), np.array([1]), np.array([0]), np.array([4.0])
            )
        )
        assert executor.ledger.view().target_shards[0] == 1

        # Receiver migrates to shard 2 while the receipt is in flight.
        mapping.assign(1, 2)
        registry.migrate_batch(np.array([1]), np.array([2]))
        assert registry.locate(1) == (2 if receiver_funded else None)

        # The deposit becomes due: it must follow the receiver to
        # shard 2 (the current phi shard), not credit stale shard 1.
        report = executor.settle(3)
        assert report.deposits_settled == 1
        assert registry.locate(1) == 2
        assert 1 not in registry.store_of(1)
        assert registry.store_of(2).get(1).balance == opening + 4.0
        assert executor.total_value() == genesis

    def test_unmigrated_receiver_still_settles_on_issue_shard(self):
        mapping = ShardMapping(np.array([0, 1]), k=2)
        registry = StateRegistry(k=2, n_accounts=2)
        executor = CrossShardExecutor(registry, mapping, relay_delay_blocks=1)
        executor.fund(0, 3.0)
        executor.execute_batch(
            TransactionBatch(
                np.array([0]), np.array([1]), np.array([0]), np.array([2.0])
            )
        )
        executor.settle(1)
        assert registry.store_of(1).get(1).balance == 2.0
