"""Mosaic: client-driven account allocation in sharded blockchains.

A from-scratch reproduction of *"Mosaic: Client-driven Account
Allocation Framework in Sharded Blockchains"* (ICDCS 2025). The public
API re-exports the pieces a downstream user needs:

* the sharded-blockchain substrate (:mod:`repro.chain`),
* the Mosaic framework and the Pilot algorithm (:mod:`repro.core`),
* the miner-driven baselines (:mod:`repro.allocation`),
* synthetic Ethereum-like traces and ETL (:mod:`repro.data`),
* the evaluation engine and metrics (:mod:`repro.sim`).

Quickstart::

    from repro import (
        EthereumTraceConfig, generate_ethereum_like_trace,
        MosaicAllocator, ProtocolParams, Simulation, SimulationConfig,
    )

    trace = generate_ethereum_like_trace(EthereumTraceConfig(seed=7))
    params = ProtocolParams(k=16, eta=2.0, tau=300)
    config = SimulationConfig(params=params)
    result = Simulation(trace, MosaicAllocator(), config).run()
    print(result.mean_cross_shard_ratio)
"""

from repro.errors import (
    ReproError,
    ConfigurationError,
    ValidationError,
    MappingError,
    MigrationError,
    AllocationError,
    PartitionError,
    DataError,
    SimulationError,
)
from repro.chain import (
    ProtocolParams,
    AccountRegistry,
    Transaction,
    TransactionBatch,
    ShardMapping,
    BeaconChain,
    Ledger,
    OverheadModel,
)
from repro.chain.migration import MigrationRequest
from repro.core import (
    Pilot,
    PilotDecision,
    Client,
    MosaicAllocator,
    Coalition,
    interaction_distribution,
    fuse_distributions,
    potential_vector,
    transaction_cost,
)
from repro.allocation import (
    Allocator,
    HashAllocator,
    MetisLikeAllocator,
    TxAlloAllocator,
    OrbitAllocator,
    TransactionGraph,
)
from repro.data import (
    Trace,
    EthereumTraceConfig,
    ValueModelConfig,
    generate_ethereum_like_trace,
    read_transactions_csv,
    write_transactions_csv,
    TraceSource,
    MaterialisedTraceSource,
    CsvTraceSource,
    EpochStream,
)
from repro.sim import (
    Simulation,
    SimulationConfig,
    SimulationResult,
    cross_shard_ratio,
    workload_deviation,
    normalized_throughput,
)
from repro.workload import WorkloadOracle, WorkloadSnapshot

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ValidationError",
    "MappingError",
    "MigrationError",
    "AllocationError",
    "PartitionError",
    "DataError",
    "SimulationError",
    "ProtocolParams",
    "AccountRegistry",
    "Transaction",
    "TransactionBatch",
    "ShardMapping",
    "BeaconChain",
    "Ledger",
    "OverheadModel",
    "MigrationRequest",
    "Pilot",
    "PilotDecision",
    "Client",
    "MosaicAllocator",
    "Coalition",
    "interaction_distribution",
    "fuse_distributions",
    "potential_vector",
    "transaction_cost",
    "Allocator",
    "HashAllocator",
    "MetisLikeAllocator",
    "TxAlloAllocator",
    "OrbitAllocator",
    "TransactionGraph",
    "Trace",
    "EthereumTraceConfig",
    "ValueModelConfig",
    "generate_ethereum_like_trace",
    "read_transactions_csv",
    "write_transactions_csv",
    "TraceSource",
    "MaterialisedTraceSource",
    "CsvTraceSource",
    "EpochStream",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "cross_shard_ratio",
    "workload_deviation",
    "normalized_throughput",
    "WorkloadOracle",
    "WorkloadSnapshot",
    "__version__",
]
