"""Executor/engine integration of the simulated message network.

The binding contracts:

* **ideal default** — ``network=None`` means the ``ideal`` null
  model, which counts traffic but never degrades it (its relay
  schedule is pinned by ``tests/test_golden_settlement.py``);
* **conservation under faults** — drops, duplicates and timeouts never
  create or destroy value: delivered receipts settle once (dedup by
  receipt id), expired receipts refund the sender;
* **determinism** — a lossy engine run is reproducible per seed and
  reports nonzero fault metrics.
"""

import numpy as np
import pytest

from repro.allocation.hash_based import HashAllocator
from repro.chain.crossshard import CrossShardExecutor
from repro.chain.mapping import ShardMapping
from repro.chain.netsim import NetworkModel, NetworkSpec
from repro.chain.params import ProtocolParams
from repro.chain.state import StateRegistry
from repro.chain.transaction import TransactionBatch
from repro.errors import SimulationError
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.recorder import summarize_results

#: Every counter an executed epoch over a lossy network writes.
LOSSY_COUNTER_KEYS = [
    "chain.crossshard.conservation_drift",
    "chain.netsim.confirmation_latency_blocks",
    "chain.netsim.delivered_messages",
    "chain.netsim.dropped_messages",
    "chain.netsim.duplicate_deliveries",
    "chain.netsim.receipt_staleness_p99",
    "chain.netsim.retransmissions",
    "chain.netsim.timeout_refunds",
    "chain.state.compactions",
]

#: Every key of a lossy executed run's summary.
LOSSY_SUMMARY_KEYS = [
    "allocator",
    "beta",
    "epochs",
    "eta",
    "final_in_flight_receipts",
    "k",
    "max_conservation_drift",
    "max_receipt_staleness_p99",
    "mean_confirmation_latency_blocks",
    "mean_cross_shard_ratio",
    "mean_execution_time",
    "mean_input_bytes",
    "mean_normalized_throughput",
    "mean_unit_time",
    "mean_workload_deviation",
    "network",
    "tau",
    "total_delivered_messages",
    "total_dropped_messages",
    "total_duplicate_deliveries",
    "total_executed_transactions",
    "total_migrations",
    "total_overdraft_aborts",
    "total_proposed_migrations",
    "total_retransmissions",
    "total_settled_volume",
    "total_timeout_refunds",
    "total_transactions",
]


def build_executor(k=4, n_accounts=40, relay_delay=1, network=None, seed=3):
    rng = np.random.default_rng(seed)
    mapping = ShardMapping(rng.integers(0, k, size=n_accounts), k=k)
    registry = StateRegistry(k=k, n_accounts=n_accounts)
    executor = CrossShardExecutor(
        registry, mapping, relay_delay_blocks=relay_delay, network=network
    )
    for account in range(n_accounts):
        executor.fund(account, 50.0)
    return executor


def workload(n_accounts=40, n_tx=600, n_blocks=40, seed=3):
    rng = np.random.default_rng(seed + 1)
    senders = rng.integers(0, n_accounts, size=n_tx)
    receivers = (senders + rng.integers(1, n_accounts, size=n_tx)) % n_accounts
    blocks = np.sort(rng.integers(0, n_blocks, size=n_tx))
    values = rng.integers(1, 4, size=n_tx).astype(np.float64)
    return TransactionBatch(senders, receivers, blocks, values)


def run_workload(executor, batch):
    reports = executor.execute_batch(batch)
    reports.append(
        executor.settle_all(from_block=int(batch.blocks.max()) + 1)
    )
    return reports


def report_key(report):
    return (
        report.block,
        report.intra_executed,
        report.withdraws,
        report.deposits_settled,
        report.failed,
        report.settled_value,
        tuple(report.relay_latencies),
    )


class TestIdealEquivalence:
    def test_no_network_means_the_ideal_model(self):
        default = build_executor()
        assert default.network_transport.is_ideal
        reports = run_workload(default, workload())
        ideal = build_executor(network=NetworkModel("ideal", seed=9))
        assert list(map(report_key, run_workload(ideal, workload()))) == list(
            map(report_key, reports)
        )

    def test_ideal_bus_still_counts_traffic(self):
        ideal = build_executor(network=NetworkModel("ideal", seed=9))
        run_workload(ideal, workload())
        transport = ideal.network_transport
        assert transport.is_ideal
        assert transport.bus.stats.sent > 0
        assert transport.bus.stats.sent == transport.bus.stats.delivered
        assert transport.bus.stats.dropped == 0


class TestLossyExecutor:
    def test_conserves_value_and_drains(self):
        executor = build_executor(network=NetworkModel("lossy", seed=4))
        genesis = executor.total_value()
        batch = workload()
        for report in run_workload(executor, batch):
            assert executor.total_value() == pytest.approx(
                genesis, abs=1e-9, rel=0
            ), f"drift after block {report.block}"
        assert executor.in_flight_value() == 0.0
        assert executor.in_flight_count() == 0
        stats = executor.network_transport.bus.stats
        assert stats.dropped > 0 and stats.retransmissions > 0

    def test_same_seed_reproduces_the_run(self):
        stats = []
        for _ in range(2):
            executor = build_executor(network=NetworkModel("lossy", seed=6))
            run_workload(executor, workload())
            stats.append(executor.network_transport.bus.stats.snapshot())
        assert stats[0] == stats[1]

    def test_duplicate_deliveries_settle_once(self):
        spec = NetworkSpec(name="echoing", duplicate_prob=1.0)
        executor = build_executor(network=NetworkModel(spec, seed=0))
        genesis = executor.total_value()
        reports = run_workload(executor, workload())
        transport = executor.network_transport
        # Every receipt echoed; every echo was deduplicated.
        assert transport.bus.stats.duplicates > 0
        assert transport.duplicates_deduped == transport.bus.stats.duplicates
        duplicates = sum(r.duplicates_deduped for r in reports)
        assert duplicates == transport.duplicates_deduped
        assert executor.total_value() == pytest.approx(genesis, abs=1e-9, rel=0)

    def test_blackhole_refunds_every_cross_shard_sender(self):
        spec = NetworkSpec(name="blackhole", drop_prob=1.0)
        executor = build_executor(network=NetworkModel(spec, seed=0))
        genesis = executor.total_value()
        reports = run_workload(executor, workload())
        withdraws = sum(r.withdraws for r in reports)
        refunds = sum(r.refunds_settled for r in reports)
        assert withdraws > 0
        assert refunds == withdraws  # nothing got through
        assert sum(r.deposits_settled for r in reports) == 0
        assert executor.network_transport.refunded_value == pytest.approx(
            sum(r.refunded_value for r in reports)
        )
        assert executor.total_value() == pytest.approx(genesis, abs=1e-9, rel=0)
        assert executor.in_flight_count() == 0


class TestEngineIntegration:
    @pytest.fixture
    def lossy_config(self):
        params = ProtocolParams(k=4, eta=2.0, tau=50, seed=11)
        return SimulationConfig(
            params=params, execute_values=True, network="lossy"
        )

    def test_non_ideal_network_requires_execution(self, params):
        with pytest.raises(SimulationError, match="execute_values"):
            SimulationConfig(params=params, network="wan")

    def test_unknown_network_rejected(self, params):
        with pytest.raises(SimulationError, match="network"):
            SimulationConfig(
                params=params, execute_values=True, network="dialup"
            )

    def test_lossy_run_reports_fault_metrics(self, tiny_trace, lossy_config):
        result = Simulation(tiny_trace, HashAllocator(), lossy_config).run()
        assert result.network == "lossy"
        assert result.total_delivered_messages > 0
        assert result.total_dropped_messages > 0
        assert result.total_retransmissions > 0
        summary = summarize_results(result)
        assert summary["max_conservation_drift"] == pytest.approx(
            0.0, abs=1e-6
        )
        assert summary["max_receipt_staleness_p99"] >= 0.0

    def test_lossy_run_pins_counter_and_summary_keys(
        self, tiny_trace, lossy_config
    ):
        result = Simulation(tiny_trace, HashAllocator(), lossy_config).run()
        assert result.records
        for record in result.records:
            assert sorted(record.counters) == LOSSY_COUNTER_KEYS
        assert sorted(summarize_results(result)) == LOSSY_SUMMARY_KEYS

    def test_lossy_run_is_deterministic(self, tiny_trace, lossy_config):
        from dataclasses import asdict

        first = Simulation(tiny_trace, HashAllocator(), lossy_config).run()
        second = Simulation(tiny_trace, HashAllocator(), lossy_config).run()
        timing = ("execution_time", "unit_time")
        for a, b in zip(first.records, second.records):
            left, right = asdict(a), asdict(b)
            for key in timing:  # wall-clock, legitimately differs
                left.pop(key), right.pop(key)
            assert left == right

    def test_ideal_run_reports_no_faults(self, tiny_trace, params):
        config = SimulationConfig(
            params=params, execute_values=True, network="ideal"
        )
        result = Simulation(tiny_trace, HashAllocator(), config).run()
        assert result.network == "ideal"
        assert result.total_dropped_messages == 0
        assert result.total_retransmissions == 0
        # Drift and staleness are audited only under a non-ideal network.
        for record in result.records:
            assert "chain.crossshard.conservation_drift" not in record.counters
            assert "chain.netsim.receipt_staleness_p99" not in record.counters
