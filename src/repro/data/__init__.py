"""Datasets: trace containers, sources, synthetic generation, ETL."""

from repro.data.trace import Trace, EpochView
from repro.data.generators import (
    zipf_weights,
    sample_pairs,
    sample_transfer_values,
    CommunityConfig,
    ValueModelConfig,
    community_pair_sampler,
)
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.data.etl import (
    write_transactions_csv,
    read_transactions_csv,
    ETL_COLUMNS,
    FEE_COLUMN,
)
from repro.data.source import (
    CsvTraceSource,
    EpochStream,
    MaterialisedTraceSource,
    TraceSource,
)

__all__ = [
    "Trace",
    "EpochView",
    "zipf_weights",
    "sample_pairs",
    "sample_transfer_values",
    "CommunityConfig",
    "ValueModelConfig",
    "community_pair_sampler",
    "EthereumTraceConfig",
    "generate_ethereum_like_trace",
    "write_transactions_csv",
    "read_transactions_csv",
    "ETL_COLUMNS",
    "FEE_COLUMN",
    "TraceSource",
    "MaterialisedTraceSource",
    "CsvTraceSource",
    "EpochStream",
]
