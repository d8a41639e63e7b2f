"""Unit tests for the MosaicAllocator framework integration."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pilot_history_reference import history_psi_scan

from repro.allocation.base import UpdateContext
from repro.allocation.hash_based import HashAllocator
from repro.allocation.txallo import TxAlloAllocator
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequest, select_migrations_kernel
from repro.chain.network import OMEGA_ENTRY_BYTES
from repro.chain.params import ProtocolParams
from repro.chain.transaction import TransactionBatch, directed_edge_table
from repro.core.interaction import interaction_matrix
from repro.core.mosaic import MosaicAllocator
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.data.trace import Trace
from repro.errors import ValidationError
from repro.sim.engine import Simulation, SimulationConfig


def context_for(params, committed, mempool, capacity=100.0, epoch=0):
    return UpdateContext(
        epoch=epoch,
        params=params,
        committed=committed,
        mempool=mempool,
        capacity=capacity,
    )


def pair_batch(pairs):
    return TransactionBatch(
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
    )


class TestInitialize:
    def test_fallback_initialization(self, tiny_trace, params):
        allocator = MosaicAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        assert mapping.n_accounts == tiny_trace.n_accounts
        assert mapping.k == params.k

    def test_initializer_delegation(self, tiny_trace, params):
        initializer = HashAllocator()
        allocator = MosaicAllocator(initializer=initializer)
        mapping = allocator.initialize(tiny_trace, params)
        expected = initializer.initialize(tiny_trace, params)
        assert mapping == expected

    def test_txallo_initializer(self, tiny_trace, params):
        allocator = MosaicAllocator(initializer=TxAlloAllocator())
        mapping = allocator.initialize(tiny_trace, params)
        assert mapping.n_accounts == tiny_trace.n_accounts


class TestUpdate:
    def test_clients_migrate_toward_peers(self, params):
        # Accounts 0..3 interact tightly; 0 starts alone on shard 1.
        mapping = ShardMapping(np.array([1, 0, 0, 0, 2, 3]), k=params.k)
        allocator = MosaicAllocator()
        committed = pair_batch([(0, 1), (0, 2), (0, 3), (0, 1)])
        mempool = pair_batch([(0, 1), (2, 3), (4, 5)])
        update = allocator.update(
            mapping, context_for(params, committed, mempool)
        )
        assert update.proposed_migrations >= 1
        assert update.mapping.shard_of(0) == 0
        # Original mapping untouched (update returns a copy).
        assert mapping.shard_of(0) == 1

    def test_capacity_caps_commitments(self, params):
        rng = np.random.default_rng(0)
        n = 50
        mapping = ShardMapping(rng.integers(0, params.k, size=n), k=params.k)
        allocator = MosaicAllocator()
        pairs = [(i, (i + 1) % n) for i in range(n) for _ in range(3)]
        committed = pair_batch(pairs)
        mempool = pair_batch(pairs)
        update = allocator.update(
            mapping, context_for(params, committed, mempool, capacity=2.0)
        )
        assert update.migrations <= 2
        assert update.proposed_migrations >= update.migrations

    def test_unlimited_migrations_flag(self, params):
        rng = np.random.default_rng(0)
        n = 50
        mapping = ShardMapping(rng.integers(0, params.k, size=n), k=params.k)
        pairs = [(i, (i + 1) % n) for i in range(n) for _ in range(3)]
        allocator = MosaicAllocator(unlimited_migrations=True)
        update = allocator.update(
            mapping,
            context_for(params, pair_batch(pairs), pair_batch(pairs), capacity=2.0),
        )
        assert update.migrations == update.proposed_migrations

    def test_no_mempool_means_no_migrations(self, params):
        """Without a workload oracle (omega = 0) every Potential ties at
        zero, so no client sees a strict gain."""
        mapping = ShardMapping(np.array([1, 0, 0, 0]), k=params.k)
        allocator = MosaicAllocator()
        committed = pair_batch([(0, 1), (0, 2)])
        update = allocator.update(
            mapping,
            context_for(params, committed, TransactionBatch.empty()),
        )
        assert update.proposed_migrations == 0

    def test_history_accumulates_across_updates(self, params):
        mapping = ShardMapping(np.array([1, 0, 0, 0]), k=params.k)
        allocator = MosaicAllocator()
        committed = pair_batch([(0, 1), (0, 2)])
        mempool = pair_batch([(1, 2)])
        first = allocator.update(
            mapping, context_for(params, committed, mempool)
        )
        second = allocator.update(
            first.mapping,
            context_for(params, pair_batch([(1, 2)]), mempool, epoch=1),
        )
        # Both epochs' transactions count, under the latest mapping.
        phi = second.mapping.as_array()
        expected = np.zeros((3, params.k))
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            expected[a, phi[b]] += 1
            expected[b, phi[a]] += 1
        rows = allocator._history_psi(np.array([0, 1, 2]), second.mapping)
        np.testing.assert_array_equal(rows, expected)

    def test_input_bytes_are_client_scale(self, params, tiny_trace):
        allocator = MosaicAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        half = len(tiny_trace.batch) // 2
        update = allocator.update(
            mapping,
            context_for(
                params,
                tiny_trace.batch[:half],
                tiny_trace.batch[half:],
                capacity=500.0,
            ),
        )
        # Hundreds of bytes per client, not graph-scale megabytes.
        assert update.input_bytes < 100_000
        assert update.unit_time < 0.01

    def test_input_bytes_count_the_nonzero_entries_of_the_fused_rows(
        self, params, tiny_trace
    ):
        """Table IV's input size: ``(psi > 0).sum(axis=1).mean()`` over
        ``Psi_h + Psi_e``, as a Python float (it enters run digests by
        ``repr``)."""
        allocator = MosaicAllocator()
        mapping = allocator.initialize(tiny_trace, params)
        third = len(tiny_trace.batch) // 3
        committed = tiny_trace.batch[third : 2 * third]
        mempool = tiny_trace.batch[2 * third :]
        update = allocator.update(mapping, context_for(params, committed, mempool))
        active = np.union1d(
            committed.touched_accounts(), mempool.touched_accounts()
        )
        psi = allocator._history_psi(active, mapping) + interaction_matrix(
            mempool, mapping, active
        )
        nonzero = float((psi > 0).sum(axis=1).mean())
        assert type(update.input_bytes) is float
        assert update.input_bytes == (
            params.k * OMEGA_ENTRY_BYTES + nonzero * 10 + 16
        )

    def test_mempool_edge_table_is_absorbed_next_epoch(self, params):
        """The mempool's memoised edge table is the run the next epoch
        absorbs; the history batch keeps no table after initialize."""
        trace = generate_ethereum_like_trace(
            EthereumTraceConfig(
                n_accounts=60, n_transactions=600, n_blocks=60, seed=2
            )
        )
        history = Trace(trace.batch[:200], trace.n_accounts)
        first, second = trace.batch[200:400], trace.batch[400:]
        allocator = MosaicAllocator()
        mapping = allocator.initialize(history, params)
        assert history.batch._edges is None
        mapping = allocator.update(
            mapping, context_for(params, first, second)
        ).mapping
        table = second._edges
        assert table is not None
        allocator.update(
            mapping,
            context_for(params, second, TransactionBatch.empty(), epoch=1),
        )
        assert second.directed_edges() is table
        absorbed = Counter()
        for batch in (history.batch, first, second):
            absorbed.update(zip(*directed_edge_table(batch)))
        assert Counter(zip(*run_edges(allocator))) == absorbed

    def _update_with_proposals(self, params):
        mapping = ShardMapping(np.array([1, 0, 0, 0]), k=params.k)
        allocator = MosaicAllocator()
        committed = pair_batch([(0, 1), (0, 2), (0, 3)])
        mempool = pair_batch([(0, 1)])
        allocator.update(mapping, context_for(params, committed, mempool))
        return allocator

    def test_last_requests_hold_every_proposal(self, params):
        """``last_requests`` keeps committed and rejected proposals."""
        mapping = ShardMapping(np.array([1, 0, 0, 0]), k=params.k)
        allocator = MosaicAllocator()
        update = allocator.update(
            mapping,
            context_for(
                params,
                pair_batch([(0, 1), (0, 2), (0, 3)]),
                pair_batch([(0, 1)]),
                capacity=0,
            ),
        )
        assert update.migrations == 0
        assert len(allocator.last_requests) == update.proposed_migrations > 0
        assert update.mapping == mapping

    def test_update_builds_no_request_objects(self, params, monkeypatch):
        """The per-epoch update stays columnar: converting the proposal
        batch to request objects would cost one object per proposal."""

        def refuse(self):
            raise AssertionError("update built a MigrationRequest")

        monkeypatch.setattr(MigrationRequest, "__post_init__", refuse)
        allocator = self._update_with_proposals(params)
        assert len(allocator.last_requests) > 0


class TestPlaceNewAccounts:
    def test_empty_input(self, params):
        allocator = MosaicAllocator()
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=params.k)
        placed = allocator.place_new_accounts(np.array([], dtype=np.int64), mapping)
        assert len(placed) == 0

    def test_beta_zero_picks_least_loaded(self, params):
        """New accounts without future knowledge go to the calmest shard."""
        mapping = ShardMapping(np.array([0, 0, 0, 1]), k=params.k)
        allocator = MosaicAllocator()
        # Mempool traffic concentrated on shard 0 accounts.
        mempool = pair_batch([(0, 1), (0, 2), (1, 2)])
        context = context_for(params, TransactionBatch.empty(), mempool)
        placed = allocator.place_new_accounts(np.array([3]), mapping, context)
        # Shards 1..k-1 carry no load; the account avoids busy shard 0.
        assert placed[0] != 0

    def test_beta_positive_follows_planned_peers(self, tiny_trace):
        from repro.chain.params import ProtocolParams

        params = ProtocolParams(k=4, eta=2.0, tau=50, beta=0.75)
        mapping = ShardMapping(np.array([2, 2, 2, 0, 1, 3]), k=4)
        allocator = MosaicAllocator()
        # New account 5's pending transactions all point at shard 2, and
        # background traffic keeps every shard's omega positive.
        mempool = pair_batch(
            [(5, 0), (5, 1), (5, 2), (5, 0), (0, 1), (3, 4), (3, 4), (2, 4)]
        )
        context = UpdateContext(
            epoch=0,
            params=params,
            committed=TransactionBatch.empty(),
            mempool=mempool,
            capacity=10.0,
        )
        placed = allocator.place_new_accounts(np.array([5]), mapping, context)
        assert placed[0] == 2

    def test_without_context_spreads_by_population(self, params):
        mapping = ShardMapping(
            np.array([0, 0, 0, 0, 1, 2]), k=params.k
        )
        allocator = MosaicAllocator()
        placed = allocator.place_new_accounts(np.array([6, 7]), mapping, None)
        assert 0 not in placed  # most crowded shard avoided
        assert len(placed) == 2


def deterministic_fields(records):
    """Epoch records without their wall-clock fields."""
    return [
        dataclasses.replace(record, execution_time=0.0, unit_time=0.0)
        for record in records
    ]


class TestReuse:
    def test_reused_instance_matches_fresh(self):
        trace = generate_ethereum_like_trace(
            EthereumTraceConfig(
                n_accounts=2_000, n_transactions=24_000, n_blocks=1_500, seed=1
            )
        )
        config = SimulationConfig(
            params=ProtocolParams(k=8, eta=2.0, tau=10, seed=1),
            history_epochs=50,
        )
        reused = MosaicAllocator()
        Simulation(trace, reused, config).run()
        again = Simulation(trace, reused, config).run()
        fresh = Simulation(trace, MosaicAllocator(), config).run()
        assert len(fresh.records) == 100
        assert deterministic_fields(again.records) == deterministic_fields(
            fresh.records
        )


# One step of the history property: a short run of operations, after
# which the maintained rows are checked against the full scan.
N_IDS = 14
K = 3
_pairs = st.lists(
    st.tuples(st.integers(0, N_IDS - 1), st.integers(0, N_IDS - 1)),
    min_size=1,
    max_size=12,
)
_moves = st.lists(
    st.tuples(st.integers(0, N_IDS - 1), st.integers(0, K - 1)),
    min_size=1,
    max_size=5,
)
_operation = st.one_of(
    st.tuples(st.just("absorb"), _pairs),
    # Eight or more one-edge batches in a row: equal runs merge at least
    # four levels deep.
    st.tuples(
        st.just("burst"),
        st.lists(
            st.tuples(st.integers(0, N_IDS - 1), st.integers(0, N_IDS - 2)),
            min_size=8,
            max_size=24,
        ),
    ),
    st.tuples(st.just("commit"), _moves),
    st.tuples(st.just("assign"), _moves),
    st.tuples(st.just("place"), _moves),
    # An unrelated mapping, possibly smaller and under another k.
    st.tuples(
        st.just("replace"),
        st.tuples(
            st.integers(2, K), st.lists(st.integers(0, K - 1), max_size=N_IDS)
        ),
    ),
)


def directed_edges(pairs):
    """The ``(owner, other, count)`` rows one absorbed batch of ``pairs``
    contributes: its interactions counted per pair, in both directions."""
    counts = Counter()
    for a, b in pairs:
        if a != b:
            counts[(a, b)] += 1
            counts[(b, a)] += 1
    return Counter((a, b, c) for (a, b), c in counts.items())


def run_edges(allocator):
    """Every directed edge the allocator's runs hold, as three columns."""
    runs = allocator._runs
    if not runs:
        return (np.zeros(0, dtype=np.int32),) * 3
    return tuple(np.concatenate(column) for column in zip(*runs))


class TestHistoryRows:
    """The maintained ``Psi_h`` rows equal a full rescan of the history."""

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(st.integers(0, K - 1), min_size=1, max_size=N_IDS // 2),
        steps=st.lists(
            st.lists(_operation, min_size=1, max_size=3), min_size=1, max_size=8
        ),
    )
    def test_rows_match_full_scan(self, initial, steps):
        allocator = MosaicAllocator()
        mapping = ShardMapping(np.array(initial), k=K)
        absorbed = Counter()
        for step in steps:
            for op, arg in step:
                mapping = self._apply(allocator, mapping, absorbed, op, arg)
            active = np.arange(mapping.n_accounts)
            rows = allocator._history_psi(active, mapping)
            expected = history_psi_scan(*run_edges(allocator), active, mapping)
            np.testing.assert_array_equal(rows, expected)
            # The runs hold exactly the absorbed edges, each run sorted
            # by owner.
            owners, others, counts = run_edges(allocator)
            assert Counter(zip(owners, others, counts)) == absorbed
            for run in allocator._runs:
                assert all(column.dtype == np.int32 for column in run)
                assert np.all(np.diff(run[0]) >= 0)

    @staticmethod
    def _apply(allocator, mapping, absorbed, op, arg):
        if op in ("absorb", "burst"):
            batches = (
                [arg]
                if op == "absorb"
                else [[(a, (a + 1 + b) % N_IDS)] for a, b in arg]
            )
            for pairs in batches:
                allocator._absorb_batch(pair_batch(pairs))
                absorbed.update(directed_edges(pairs))
        elif op == "replace":
            k, shards = arg
            mapping = ShardMapping(np.array(shards, dtype=np.int64) % k, k=k)
        else:
            k = mapping.k
            moves = [(a, s % k) for a, s in arg if a < mapping.n_accounts]
            if op == "place":
                # New-account placement: only ids no batch has named.
                named = {owner for owner, _, _ in absorbed}
                moves = [(a, s) for a, s in moves if a not in named]
            accounts = np.array([a for a, _ in moves], dtype=np.int64)
            shards = np.array([s for _, s in moves], dtype=np.int64)
            if op in ("assign", "place"):
                # In place, on the very object the allocator last saw.
                mapping.assign_many(accounts, shards)
            else:
                # Beacon commit onto a copy, as ``update`` does; a
                # request always leaves its current shard.
                mapping = mapping.copy()
                current = mapping.shards_of(accounts)
                targets = (current + 1 + shards % (k - 1)) % k
                committed, _ = select_migrations_kernel(
                    accounts,
                    current,
                    targets,
                    np.ones(len(accounts)),
                    mapping.as_array(),
                    k,
                    None,
                )
                mapping.assign_many(accounts[committed], targets[committed])
        return mapping

    def test_equal_runs_merge_four_levels_deep(self):
        # Eight equal one-edge runs end as one run four merges deep:
        # [2] [4] [6] [6, 2] [10] [10, 2] [10, 4] [16].
        allocator = MosaicAllocator()
        mapping = ShardMapping(np.arange(N_IDS) % K, k=K)
        for a in range(8):
            allocator._absorb_batch(pair_batch([(a, a + 1)]))
        assert [len(run[0]) for run in allocator._runs] == [16]
        active = np.arange(N_IDS)
        np.testing.assert_array_equal(
            allocator._history_psi(active, mapping),
            history_psi_scan(*run_edges(allocator), active, mapping),
        )

    def test_account_id_beyond_int32_is_rejected(self):
        allocator = MosaicAllocator()
        top = np.iinfo(np.int32).max
        allocator._absorb_batch(pair_batch([(0, top)]))
        with pytest.raises(ValidationError, match="int32"):
            allocator._absorb_batch(pair_batch([(1, top + 1)]))
        owners, others, counts = run_edges(allocator)
        assert sorted(zip(owners, others, counts)) == [(0, top, 1), (top, 0, 1)]
