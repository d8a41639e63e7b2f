"""Failure injection: the substrate must detect corruption, not absorb it.

These tests deliberately break invariants — tampered blocks, forged
chains, inconsistent mappings, mismatched components — and assert that
the library refuses loudly instead of carrying on with silent state
divergence (the failure mode sharded systems fear most).
"""

import dataclasses

import numpy as np
import pytest

from migration_reference import apply_committed
from repro.chain.beacon import BeaconChain
from repro.chain.block import Block, BlockHeader, GENESIS_HASH, payload_digest
from repro.chain.crossshard import CrossShardExecutor
from repro.chain.ledger import Ledger
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch
from repro.chain.params import ProtocolParams
from repro.chain.state import StateRegistry
from repro.chain.transaction import TransactionBatch
from repro.errors import (
    BlockLinkError,
    ChainError,
    MappingError,
    SimulationError,
    UnknownAccountError,
    ValidationError,
)



def one_request(account, from_shard=0, to_shard=1):
    """A single-row migration-request batch."""
    return MigrationRequestBatch(
        np.array([account]), np.array([from_shard]), np.array([to_shard])
    )

class TestChainTampering:
    def test_rewritten_block_breaks_verification(self):
        beacon = BeaconChain()
        beacon.submit_batch(one_request(1))
        beacon.commit_epoch(epoch=0)
        beacon.submit_batch(one_request(2))
        beacon.commit_epoch(epoch=1)
        beacon.verify()
        # An attacker swaps out block 0 for a forged one with the same
        # height and parent but different content.
        forged = Block.build(
            BeaconChain.CHAIN_ID, 0, GENESIS_HASH, [one_request(3)]
        )
        beacon._blocks[0] = forged  # simulate storage compromise
        with pytest.raises(BlockLinkError):
            beacon.verify()

    def test_payload_swap_is_rejected_at_construction(self):
        original = Block.build("shard-0", 0, GENESIS_HASH, ["tx-a"])
        with pytest.raises(ValidationError):
            Block(header=original.header, payload=("tx-evil",))

    def test_header_field_tamper_changes_hash(self):
        header = BlockHeader("shard-0", 1, GENESIS_HASH, payload_digest([]))
        tampered = dataclasses.replace(header, epoch=99)
        assert header.block_hash != tampered.block_hash

    def test_beacon_chain_detects_reordered_blocks(self):
        beacon = BeaconChain()
        beacon.submit_batch(one_request(1))
        beacon.commit_epoch(epoch=0)
        beacon.submit_batch(one_request(2))
        beacon.commit_epoch(epoch=1)
        beacon._blocks.reverse()  # simulate a reordering attack
        with pytest.raises(BlockLinkError):
            beacon.verify()


class TestMappingCorruption:
    def test_out_of_range_assignment_rejected_everywhere(self):
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=2)
        with pytest.raises(MappingError):
            mapping.assign(0, 5)
        with pytest.raises(MappingError):
            mapping.assign_many(np.array([0]), np.array([5]))

    def test_ledger_rejects_foreign_accounts(self, params):
        mapping = ShardMapping(np.zeros(4, dtype=np.int64), k=params.k)
        executor = CrossShardExecutor(
            StateRegistry(k=params.k, n_accounts=4), mapping
        )
        ledger = Ledger(params, executor)
        alien = TransactionBatch(np.array([99]), np.array([0]))
        with pytest.raises(UnknownAccountError):
            ledger.execute_epoch(alien)

    def test_stale_migration_cannot_corrupt_mapping(self):
        """A request referencing the account's *old* shard is dropped,
        so replayed/raced requests cannot flip state back."""
        beacon = BeaconChain()
        mapping = ShardMapping(np.array([0, 0]), k=2)
        beacon.submit_batch(one_request(0))
        beacon.commit_epoch(epoch=0, mapping=mapping)
        apply_committed(beacon, mapping)
        assert mapping.shard_of(0) == 1
        # Replay the identical (now stale) request.
        beacon.submit_batch(one_request(0))
        assert len(beacon.commit_epoch(epoch=1, mapping=mapping)) == 0
        assert mapping.shard_of(0) == 1


class TestComponentMismatch:
    def test_executor_rejects_k_mismatch(self):
        mapping = ShardMapping(np.zeros(2, dtype=np.int64), k=2)
        with pytest.raises(ValidationError):
            CrossShardExecutor(StateRegistry(k=3, n_accounts=2), mapping)

    def test_executor_rejects_undersized_registry(self):
        """A registry smaller than the mapping's universe is refused up
        front, before any block could half-apply against it."""
        mapping = ShardMapping(np.array([0, 1, 1]), k=2)
        with pytest.raises(ValidationError, match="registry holds 2 accounts"):
            CrossShardExecutor(StateRegistry(k=2, n_accounts=2), mapping)
        CrossShardExecutor(StateRegistry(k=2, n_accounts=3), mapping)

    def test_ledger_rejects_k_mismatch(self, params):
        mapping = ShardMapping(np.zeros(2, dtype=np.int64), k=params.k + 1)
        executor = CrossShardExecutor(
            StateRegistry(k=params.k + 1, n_accounts=2), mapping
        )
        with pytest.raises(SimulationError):
            Ledger(params, executor)

    def test_engine_rejects_allocator_changing_k(self, tiny_trace, params):
        from repro.allocation.base import AllocationUpdate, Allocator, UpdateContext
        from repro.data.trace import Trace
        from repro.sim.engine import Simulation, SimulationConfig

        class RogueAllocator(Allocator):
            name = "rogue"

            def initialize(self, history, params_):
                return ShardMapping(
                    np.zeros(history.n_accounts, dtype=np.int64), k=params_.k
                )

            def update(self, mapping, context):
                wrong = ShardMapping(
                    np.zeros(mapping.n_accounts, dtype=np.int64),
                    k=mapping.k + 1,
                )
                return AllocationUpdate(mapping=wrong)

        config = SimulationConfig(params=params, history_fraction=0.5)
        with pytest.raises(SimulationError, match="changed k"):
            Simulation(tiny_trace, RogueAllocator(), config).run()

    def test_engine_rejects_undersized_initial_mapping(self, tiny_trace, params):
        from repro.allocation.base import AllocationUpdate, Allocator
        from repro.sim.engine import Simulation, SimulationConfig

        class ShortAllocator(Allocator):
            name = "short"

            def initialize(self, history, params_):
                return ShardMapping(np.zeros(1, dtype=np.int64), k=params_.k)

            def update(self, mapping, context):
                return AllocationUpdate(mapping=mapping)

        config = SimulationConfig(params=params)
        with pytest.raises(SimulationError, match="universe"):
            Simulation(tiny_trace, ShortAllocator(), config).run()


class TestMatrixRunnerFailures:
    """The scenario-matrix runner must contain cell failures, not absorb
    them: a crashing cell surfaces a clear error naming the cell, and
    every other cell's aggregated result is unaffected."""

    @staticmethod
    def _matrix(methods, seed=0):
        from repro.experiments import ScenarioMatrix, default_trace

        return ScenarioMatrix(
            name="failure-injection",
            methods=methods,
            traces=(
                default_trace(
                    "fi-trace",
                    n_accounts=300,
                    n_transactions=2_000,
                    n_blocks=200,
                    seed=3,
                ),
            ),
            ks=(2,),
            seed=seed,
        )

    @pytest.fixture()
    def crashing_builder(self, monkeypatch):
        from repro.experiments import matrix as matrix_module

        def explode(seed):
            raise RuntimeError("allocator exploded mid-cell")

        monkeypatch.setitem(
            matrix_module.ALLOCATOR_BUILDERS, "crasher", explode
        )

    def test_crashed_cell_surfaces_clear_error(self, crashing_builder):
        from repro.experiments import run_matrix

        result = run_matrix(
            self._matrix(("hash-random", "crasher", "mosaic-pilot"))
        )
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert "crasher" in failure.label
        assert "crasher" in failure.error and "exploded" in failure.error
        assert failure.summary is None

    def test_other_cells_unaffected_by_crash(self, crashing_builder):
        from repro.experiments import run_matrix

        with_crash = run_matrix(
            self._matrix(("hash-random", "crasher", "mosaic-pilot"))
        )
        without_crash = run_matrix(
            self._matrix(("hash-random", "mosaic-pilot"))
        )
        healthy = {
            o.label: o.deterministic_summary()
            for o in with_crash.outcomes
            if o.ok
        }
        reference = {
            o.label: o.deterministic_summary() for o in without_crash.outcomes
        }
        assert healthy == reference  # aggregated results not corrupted

    def test_strict_mode_raises_experiment_error(self, crashing_builder):
        from repro.errors import ExperimentError
        from repro.experiments import run_matrix

        with pytest.raises(ExperimentError, match="crasher"):
            run_matrix(self._matrix(("crasher", "hash-random")), strict=True)

    def test_parallel_worker_crash_is_contained(self, crashing_builder):
        """A failing cell on the process pool is reported per cell; the
        healthy cells' results still aggregate bit-identically."""
        from repro.experiments import run_matrix

        result = run_matrix(
            self._matrix(("hash-random", "crasher", "mosaic-pilot")),
            workers=2,
        )
        assert len(result.failures) == 1
        assert "crasher" in result.failures[0].error
        sequential = run_matrix(
            self._matrix(("hash-random", "crasher", "mosaic-pilot"))
        )
        assert (
            result.deterministic_digest() == sequential.deterministic_digest()
        )

    def test_hard_worker_death_does_not_hang_the_sweep(self, monkeypatch):
        """A worker process dying outright (os._exit) must not corrupt or
        deadlock the run: every cell resolves to success or a clear
        worker-crash error."""
        from repro.experiments import matrix as matrix_module
        from repro.experiments import run_matrix

        def die(seed):
            import os

            os._exit(13)

        monkeypatch.setitem(matrix_module.ALLOCATOR_BUILDERS, "diehard", die)
        result = run_matrix(
            self._matrix(("hash-random", "diehard")), workers=2
        )
        assert len(result.outcomes) == 2
        died = [o for o in result.outcomes if "diehard" in o.label]
        assert len(died) == 1 and not died[0].ok
        assert "crashed" in died[0].error or "failed" in died[0].error


class TestEconomicAbuse:
    def test_overdraft_spree_cannot_mint_value(self):
        """A sender spamming transfers it cannot afford leaves every
        balance intact — failures must be side-effect free."""
        mapping = ShardMapping(np.array([0, 1]), k=2)
        executor = CrossShardExecutor(StateRegistry(k=2, n_accounts=2), mapping)
        executor.fund(0, 1.0)
        before = executor.total_value()
        from repro.chain.transaction import TransactionBatch

        for block in range(5):
            (report,) = executor.execute_batch(
                TransactionBatch([0], [1], [block], [100.0])
            )
            assert report.failed == 1
        assert executor.total_value() == before

    def test_double_remove_is_detected(self):
        registry = StateRegistry(k=2, n_accounts=2)
        registry.store_of(0).credit(1, 5.0)
        registry.store_of(0).remove(1)
        with pytest.raises(ChainError):
            registry.store_of(0).remove(1)
