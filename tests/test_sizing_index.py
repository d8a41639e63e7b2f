"""Sizing pass: the row count, universe and funding partials of a replay.

The pass must size a CSV extract identically whatever its chunk size,
its partials must be bit-identical to the eager
:func:`observed_funding_balances` over the materialised extract, and a
``.sizing.npz`` file an older checkout left beside an extract must not
change a run.
"""

import numpy as np

from repro.allocation.hash_based import HashAllocator
from repro.chain.economics import observed_funding_balances
from repro.chain.params import ProtocolParams
from repro.chain.transaction import DEFAULT_TRANSFER_AMOUNT
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.data.etl import write_transactions_csv
from repro.data.generators import ValueModelConfig
from repro.data.sizing import sizing_pass
from repro.data.source import DEFAULT_CHUNK_ROWS, CsvTraceSource
from repro.sim.engine import FUNDING_OBSERVED, Simulation, SimulationConfig

VALUED_CONFIG = EthereumTraceConfig(
    n_transactions=4_000,
    n_accounts=600,
    n_blocks=200,
    seed=11,
    value_model=ValueModelConfig(kind="zipf", fee_fraction=0.02),
)

PLAIN_CONFIG = EthereumTraceConfig(
    n_transactions=2_000, n_accounts=400, n_blocks=120, seed=5
)

#: Deterministic EpochRecord fields (everything but the wall clocks).
_EXCLUDED_FIELDS = ("execution_time", "unit_time")


def _write_csv(tmp_path, config, name="trace.csv"):
    path = tmp_path / name
    write_transactions_csv(path, generate_ethereum_like_trace(config))
    return path


def _sizing(path, chunk_rows=DEFAULT_CHUNK_ROWS):
    source = CsvTraceSource(path, chunk_rows=chunk_rows, decoder="python")
    return sizing_pass(source.chunks(), source)


class TestBuildAndLoad:
    def test_valueless_trace_funds_default_amounts(self, tmp_path):
        """A file without a value column sizes as valueless: each send
        is funded at the default transfer amount."""
        path = _write_csv(tmp_path, PLAIN_CONFIG)
        index = _sizing(path, chunk_rows=97)
        (trace,) = list(
            CsvTraceSource(path, chunk_rows=100_000, decoder="python").chunks()
        )
        assert trace.values is None
        assert index.n_rows == 2_000
        expected = observed_funding_balances(trace, index.n_accounts)
        assert index.partials.tobytes() == expected.tobytes()
        assert index.partials.sum() == 2_000 * DEFAULT_TRANSFER_AMOUNT

    def test_chunk_rows_do_not_change_the_index(self, tmp_path):
        path = _write_csv(tmp_path, VALUED_CONFIG)
        small = _sizing(path, chunk_rows=97)
        large = _sizing(path, chunk_rows=100_000)
        assert small.n_rows == large.n_rows == 4_000
        assert small.n_accounts == large.n_accounts
        assert np.array_equal(small.partials, large.partials)

    def test_funding_balances_match_eager_oracle_bit_exactly(self, tmp_path):
        path = _write_csv(tmp_path, VALUED_CONFIG)
        index = _sizing(path, chunk_rows=733)
        source = CsvTraceSource(path, chunk_rows=100_000, decoder="python")
        (trace,) = list(source.chunks())
        assert trace.values is not None
        expected = observed_funding_balances(trace, index.n_accounts)
        assert index.partials.tobytes() == expected.tobytes()


class TestLeftoverSidecar:
    def test_leftover_sidecar_is_inert(self, tmp_path):
        """A corrupt ``trace.csv.sizing.npz`` beside the extract, as an
        older checkout could leave, changes no record and no state root
        of an observed-funding executed run."""
        path = _write_csv(tmp_path, VALUED_CONFIG)
        config = SimulationConfig(
            params=ProtocolParams(k=4, eta=2.0, tau=20, seed=3),
            execute_values=True,
            funding=FUNDING_OBSERVED,
        )

        def run():
            simulation = Simulation(
                CsvTraceSource(path, chunk_rows=599, decoder="python"),
                HashAllocator(),
                config,
            )
            result = simulation.run()
            registry = simulation.substrate.registry
            roots = [
                registry.store_of(shard).state_root()
                for shard in range(registry.k)
            ]
            return result.records, roots

        records, roots = run()
        (tmp_path / "trace.csv.sizing.npz").write_bytes(b"not an npz archive")
        leftover_records, leftover_roots = run()

        assert records and len(records) == len(leftover_records)
        fields = [
            name
            for name in records[0].__dataclass_fields__
            if name not in _EXCLUDED_FIELDS
        ]
        for a, b in zip(records, leftover_records):
            for name in fields:
                assert getattr(a, name) == getattr(b, name), (name, a.epoch)
        assert roots == leftover_roots
