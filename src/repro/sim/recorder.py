"""Per-run summaries: the flat metric dicts tables and reports read."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.sim.engine import SimulationResult

#: Metric keys of every summary, each the :class:`SimulationResult`
#: view of the same name.
BASE_METRICS = (
    "total_transactions",
    "mean_cross_shard_ratio",
    "mean_workload_deviation",
    "mean_normalized_throughput",
    "mean_execution_time",
    "mean_unit_time",
    "mean_input_bytes",
    "total_migrations",
    "total_proposed_migrations",
)

#: Metric keys of executed (``execute_values``) runs, each the
#: :class:`SimulationResult` view of the same name.
EXECUTED_METRICS = (
    "total_executed_transactions",
    "total_settled_volume",
    "total_overdraft_aborts",
    "final_in_flight_receipts",
)


_counter_sum = SimulationResult.counter_total


def _counter_mean(result: SimulationResult, key: str) -> float:
    """Mean of ``counters[key]`` over every record (absent counts 0.0)."""
    if not result.records:
        return 0.0
    values = np.array([r.counters.get(key, 0.0) for r in result.records])
    return float(values.mean())


def _counter_max(result: SimulationResult, key: str) -> float:
    """Largest ``counters[key]`` of any record (0.0 without records)."""
    return max((r.counters.get(key, 0.0) for r in result.records), default=0.0)


#: Summary key, :attr:`~repro.sim.engine.EpochRecord.counters` key and
#: reducer of every entry a non-ideal-network summary adds.
NETWORK_SUMMARY = (
    ("total_delivered_messages", "chain.netsim.delivered_messages", _counter_sum),
    ("total_dropped_messages", "chain.netsim.dropped_messages", _counter_sum),
    ("total_retransmissions", "chain.netsim.retransmissions", _counter_sum),
    (
        "total_duplicate_deliveries",
        "chain.netsim.duplicate_deliveries",
        _counter_sum,
    ),
    ("total_timeout_refunds", "chain.netsim.timeout_refunds", _counter_sum),
    (
        "mean_confirmation_latency_blocks",
        "chain.netsim.confirmation_latency_blocks",
        _counter_mean,
    ),
    (
        "max_receipt_staleness_p99",
        "chain.netsim.receipt_staleness_p99",
        _counter_max,
    ),
    (
        "max_conservation_drift",
        "chain.crossshard.conservation_drift",
        _counter_max,
    ),
)

#: Every numeric summary key some run can carry.
SUMMARY_METRICS = BASE_METRICS + EXECUTED_METRICS + tuple(
    key for key, _, _ in NETWORK_SUMMARY
)


def summarize_results(result: SimulationResult) -> Dict[str, object]:
    """Flatten a :class:`SimulationResult` into a JSON-friendly summary.

    Executed-value aggregates are only present for unified-engine runs
    (``execute_values=True``), and the :data:`NETWORK_SUMMARY` entries
    only for non-ideal networks, so metrics-only and ideal-network
    summaries — and every digest or golden built from them — are
    unchanged by either feature's existence.
    """
    summary: Dict[str, object] = {
        "allocator": result.allocator_name,
        "k": result.params.k,
        "eta": result.params.eta,
        "tau": result.params.tau,
        "beta": result.params.beta,
        "epochs": result.epochs,
    }
    summary.update((key, getattr(result, key)) for key in BASE_METRICS)
    if result.execute_values:
        summary.update((key, getattr(result, key)) for key in EXECUTED_METRICS)
    if result.execute_values and result.network != "ideal":
        summary["network"] = result.network
        summary.update(
            (key, reduce(result, counter))
            for key, counter, reduce in NETWORK_SUMMARY
        )
    return summary

