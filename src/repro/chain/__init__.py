"""Sharded-blockchain substrate.

This subpackage implements the blockchain model from Section III-A of the
paper: ``k`` shards, each a state store run by the cross-shard executor,
plus one beacon chain, an account-shard mapping ``phi`` (Definition 1),
and the epoch-reconfiguration procedure that applies client-proposed
account migrations. The workload ``omega`` and the other evaluation
metrics live in :mod:`repro.sim.metrics`.
"""

from repro.chain.params import ProtocolParams
from repro.chain.account import Address, AccountRegistry
from repro.chain.transaction import Transaction, TransactionBatch
from repro.chain.block import Block, BlockHeader, compute_block_hash, GENESIS_HASH
from repro.chain.mapping import ShardMapping
from repro.chain.beacon import BeaconChain
from repro.chain.segments import DEFAULT_SEGMENT_ROWS, SegmentedCommitLog
from repro.chain.migration import MigrationRequest, MigrationRequestBatch
from repro.chain.epoch import EpochReconfigurator
from repro.chain.ledger import Ledger
from repro.chain.network import OverheadModel, OverheadEstimate, TX_RECORD_BYTES
from repro.chain.netsim import (
    NETWORK_IDEAL,
    NETWORK_SPEC_NAMES,
    LinkOutage,
    MessageBus,
    NetworkModel,
    NetworkSpec,
    Partition,
    ReceiptTransport,
    RetryPolicy,
    network_spec,
)
from repro.chain.state import (
    AccountState,
    DenseShardStateStore,
    StateRegistry,
)
from repro.chain.receipts import ReceiptBatch, ReceiptLedger
from repro.chain.crossshard import CrossShardExecutor, ExecutionReport
from repro.chain.economics import (
    MigrationFeeSchedule,
    flooding_attack_cost,
    simulate_flooding,
)

__all__ = [
    "ProtocolParams",
    "Address",
    "AccountRegistry",
    "Transaction",
    "TransactionBatch",
    "Block",
    "BlockHeader",
    "compute_block_hash",
    "GENESIS_HASH",
    "ShardMapping",
    "BeaconChain",
    "SegmentedCommitLog",
    "DEFAULT_SEGMENT_ROWS",
    "MigrationRequest",
    "MigrationRequestBatch",
    "EpochReconfigurator",
    "Ledger",
    "OverheadModel",
    "OverheadEstimate",
    "TX_RECORD_BYTES",
    "NETWORK_IDEAL",
    "NETWORK_SPEC_NAMES",
    "LinkOutage",
    "MessageBus",
    "NetworkModel",
    "NetworkSpec",
    "Partition",
    "ReceiptTransport",
    "RetryPolicy",
    "network_spec",
    "AccountState",
    "DenseShardStateStore",
    "StateRegistry",
    "CrossShardExecutor",
    "ReceiptBatch",
    "ReceiptLedger",
    "ExecutionReport",
    "MigrationFeeSchedule",
    "flooding_attack_cost",
    "simulate_flooding",
]
