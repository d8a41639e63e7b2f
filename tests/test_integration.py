"""Integration tests: end-to-end shape checks against the paper's claims.

These tests run the full evaluation pipeline on a mid-size synthetic
trace and assert the *qualitative* results of Section V: who wins, in
which direction, and by roughly what kind of margin. Absolute numbers
necessarily differ from the paper (different dataset scale), but every
ordering claim is checked.
"""

import numpy as np
import pytest

from repro.allocation.hash_based import HashAllocator
from repro.allocation.metis_like import MetisLikeAllocator
from repro.allocation.txallo import TxAlloAllocator
from repro.chain.params import ProtocolParams
from repro.core.mosaic import MosaicAllocator
from repro.sim.engine import Simulation, SimulationConfig


@pytest.fixture(scope="module")
def shape_results(request):
    """Run all four allocators once on a shared trace (module-scoped)."""
    # Import here so the fixture owns the expensive work.
    from repro.data.ethereum import (
        EthereumTraceConfig,
        generate_ethereum_like_trace,
    )

    trace = generate_ethereum_like_trace(
        EthereumTraceConfig(
            n_accounts=3_000,
            n_transactions=40_000,
            n_blocks=2_400,
            seed=17,
        )
    )
    params = ProtocolParams(k=4, eta=2.0, tau=40, seed=17)
    config = SimulationConfig(params=params)
    allocators = {
        "random": HashAllocator(),
        "mosaic": MosaicAllocator(initializer=TxAlloAllocator()),
        "txallo": TxAlloAllocator(),
        "metis": MetisLikeAllocator(seed=17),
    }
    return {
        name: Simulation(trace, allocator, config).run()
        for name, allocator in allocators.items()
    }


class TestCrossShardRatioShape:
    def test_random_is_worst(self, shape_results):
        random_ratio = shape_results["random"].mean_cross_shard_ratio
        for name in ("mosaic", "txallo", "metis"):
            assert shape_results[name].mean_cross_shard_ratio < random_ratio

    def test_mosaic_close_to_graph_methods(self, shape_results):
        """Paper: ~5% above the best miner-driven baseline."""
        mosaic = shape_results["mosaic"].mean_cross_shard_ratio
        best = min(
            shape_results["txallo"].mean_cross_shard_ratio,
            shape_results["metis"].mean_cross_shard_ratio,
        )
        assert mosaic <= best + 0.15  # generous band around the paper's 5%


class TestThroughputShape:
    def test_pattern_aware_methods_beat_random(self, shape_results):
        random_throughput = shape_results["random"].mean_normalized_throughput
        for name in ("mosaic", "txallo", "metis"):
            assert (
                shape_results[name].mean_normalized_throughput
                > random_throughput
            )

    def test_mosaic_retains_most_of_best_throughput(self, shape_results):
        """Paper: ~98% of the system throughput."""
        mosaic = shape_results["mosaic"].mean_normalized_throughput
        best = max(
            shape_results[name].mean_normalized_throughput
            for name in ("txallo", "metis")
        )
        assert mosaic >= 0.85 * best


class TestEfficiencyShape:
    def test_pilot_orders_of_magnitude_faster(self, shape_results):
        """Paper: 4 orders of magnitude; we check >= 3 to be robust."""
        pilot_time = shape_results["mosaic"].mean_unit_time
        for name in ("txallo", "metis"):
            baseline_time = shape_results[name].mean_unit_time
            assert baseline_time > 1_000 * pilot_time, (name, baseline_time, pilot_time)

    def test_pilot_input_orders_of_magnitude_smaller(self, shape_results):
        pilot_bytes = shape_results["mosaic"].mean_input_bytes
        for name in ("txallo", "metis"):
            assert shape_results[name].mean_input_bytes > 50 * pilot_bytes

    def test_pilot_input_is_hundreds_of_bytes_scale(self, shape_results):
        assert shape_results["mosaic"].mean_input_bytes < 50_000


class TestMigrationBehaviour:
    def test_mosaic_proposes_and_commits(self, shape_results):
        result = shape_results["mosaic"]
        assert result.total_proposed_migrations > 0
        assert 0 < result.total_migrations <= result.total_proposed_migrations

    def test_random_never_migrates(self, shape_results):
        assert shape_results["random"].total_migrations == 0


class TestBetaImprovesPerformance:
    def test_future_knowledge_helps(self, medium_trace):
        """Paper Table V: beta > 0 improves on beta = 0."""
        ratios = {}
        for beta in (0.0, 0.75):
            params = ProtocolParams(k=4, eta=2.0, tau=50, beta=beta, seed=3)
            config = SimulationConfig(params=params)
            result = Simulation(
                medium_trace, MosaicAllocator(initializer=TxAlloAllocator()), config
            ).run()
            ratios[beta] = result.mean_cross_shard_ratio
        assert ratios[0.75] <= ratios[0.0] + 0.02


class TestLedgerIntegration:
    def test_full_substrate_round(self, tiny_trace, params):
        """Drive the executed chain substrate with Mosaic migration
        requests: value stays exactly conserved and every migrated
        account's state lands on its new shard."""
        import numpy as np

        from repro.allocation.base import UpdateContext
        from repro.chain.crossshard import CrossShardExecutor
        from repro.chain.ledger import Ledger
        from repro.chain.state import StateRegistry

        history, evaluation = tiny_trace.split(0.9)
        allocator = MosaicAllocator()
        mapping = allocator.initialize(history, params).copy()
        executor = CrossShardExecutor(
            StateRegistry(params.k, n_accounts=mapping.n_accounts), mapping
        )
        executor.fund_many(np.arange(mapping.n_accounts), 10.0)
        genesis = executor.total_value()
        ledger = Ledger(params, executor)

        epochs = evaluation.epoch_list(params.tau)
        committed_total = 0
        for i, view in enumerate(epochs):
            if len(view.batch) == 0:
                continue
            reports = ledger.execute_epoch(view.batch)
            assert sum(
                r.intra_executed + r.withdraws + r.failed for r in reports
            ) == len(view.batch)
            mempool = epochs[i + 1].batch if i + 1 < len(epochs) else view.batch
            context = UpdateContext(
                epoch=view.index,
                params=params,
                committed=view.batch,
                mempool=mempool,
                capacity=params.derive_capacity(len(view.batch)),
            )
            allocator.update(ledger.mapping, context)
            ledger.submit_migration_batch(allocator.last_requests)
            committed = ledger.commit_migrations(
                view.index, capacity=int(context.capacity)
            )
            committed_total += len(committed)
            assert ledger.reconfigure(view.index) == len(committed)
            assert executor.total_value() == genesis
            moved = committed.accounts
            np.testing.assert_array_equal(
                executor.registry.locate_many(moved),
                ledger.mapping.as_array()[moved],
            )
        assert committed_total > 0
        ledger.beacon.verify()
        assert ledger.beacon.committed_count == committed_total
