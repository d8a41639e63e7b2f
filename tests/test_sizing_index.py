"""Persisted sizing index: spool-free streamed replays of CSV extracts.

The sidecar must make an indexed streamed run bit-identical to the
sizing-pass run it replaces (rows, universe, values-present flag and —
for observed funding — the genesis balances), return None when absent,
and fail loudly with the typed :class:`SizingIndexError` whenever the
extract drifted out from under it.
"""

import os

import numpy as np
import pytest

from repro.allocation.hash_based import HashAllocator
from repro.chain.economics import ObservedFundingAccumulator
from repro.chain.params import ProtocolParams
from repro.cli import main
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.data.etl import write_transactions_csv
from repro.data.generators import ValueModelConfig
from repro.data.sizing import (
    SIZING_INDEX_VERSION,
    SizingIndex,
    build_sizing_index,
    load_sizing_index,
    sizing_index_path,
    write_sizing_index,
)
from repro.data.source import CsvTraceSource, MaterialisedTraceSource
from repro.errors import DataError, SizingIndexError, ValidationError
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


def _records(path, config):
    run = Simulation(
        CsvTraceSource(path, chunk_rows=599, decoder="python"),
        HashAllocator(),
        config,
    ).run()
    return run.records


def _assert_identical(left, right):
    assert left and len(left) == len(right)
    fields = [
        name
        for name in left[0].__dataclass_fields__
        if name not in _EXCLUDED_FIELDS
    ]
    for a, b in zip(left, right):
        for name in fields:
            assert getattr(a, name) == getattr(b, name), (name, a.epoch)


class TestBuildAndLoad:
    def test_round_trip(self, tmp_path):
        path = _write_csv(tmp_path, VALUED_CONFIG)
        index = build_sizing_index(path)
        assert index.n_rows == 4_000
        assert index.values_present
        assert index.n_accounts == index.max_account_id + 1
        assert len(index.partials) == index.n_accounts
        sidecar = write_sizing_index(path, index)
        assert sidecar == sizing_index_path(path)
        loaded = load_sizing_index(path)
        assert loaded.n_rows == index.n_rows
        assert loaded.n_accounts == index.n_accounts
        assert loaded.values_present == index.values_present
        assert np.array_equal(loaded.partials, index.partials)

    def test_valueless_trace_has_no_values_flag(self, tmp_path):
        path = _write_csv(tmp_path, PLAIN_CONFIG)
        index = build_sizing_index(path)
        assert not index.values_present
        assert index.n_rows == 2_000

    def test_missing_sidecar_is_none(self, tmp_path):
        path = _write_csv(tmp_path, PLAIN_CONFIG)
        assert load_sizing_index(path) is None
        assert CsvTraceSource(path).sizing_index() is None

    def test_chunk_rows_do_not_change_the_index(self, tmp_path):
        path = _write_csv(tmp_path, VALUED_CONFIG)
        small = build_sizing_index(path, chunk_rows=97)
        large = build_sizing_index(path, chunk_rows=100_000)
        assert small.n_rows == large.n_rows
        assert small.n_accounts == large.n_accounts
        assert np.array_equal(small.partials, large.partials)

    def test_funding_balances_matches_accumulator_bit_exactly(self, tmp_path):
        path = _write_csv(tmp_path, VALUED_CONFIG)
        index = build_sizing_index(path)
        for headroom in (0.0, 0.25):
            accumulator = ObservedFundingAccumulator(headroom=headroom)
            source = CsvTraceSource(path, chunk_rows=733, decoder="python")
            for chunk in source.chunks():
                accumulator.add(chunk)
            expected = accumulator.finalise(index.n_accounts)
            replayed = index.funding_balances(index.n_accounts, headroom)
            assert np.array_equal(replayed, expected)

    def test_funding_balances_rejects_foreign_universe(self, tmp_path):
        path = _write_csv(tmp_path, VALUED_CONFIG)
        index = build_sizing_index(path)
        with pytest.raises(ValidationError):
            index.funding_balances(index.n_accounts + 1, 0.0)


class TestStaleness:
    def test_size_or_mtime_drift_raises_typed_error(self, tmp_path):
        path = _write_csv(tmp_path, PLAIN_CONFIG)
        write_sizing_index(path)
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        with pytest.raises(SizingIndexError) as excinfo:
            load_sizing_index(path)
        assert "stale" in str(excinfo.value)
        assert isinstance(excinfo.value, DataError)

    def test_rewritten_extract_invalidates_the_index(self, tmp_path):
        path = _write_csv(tmp_path, PLAIN_CONFIG)
        write_sizing_index(path)
        _write_csv(tmp_path, VALUED_CONFIG)  # regenerate in place
        with pytest.raises(SizingIndexError):
            CsvTraceSource(path).sizing_index()

    def test_version_skew_raises(self, tmp_path):
        path = _write_csv(tmp_path, PLAIN_CONFIG)
        index = build_sizing_index(path)
        sidecar = sizing_index_path(path)
        with sidecar.open("wb") as handle:
            np.savez(
                handle,
                version=np.int64(SIZING_INDEX_VERSION + 1),
                n_rows=np.int64(index.n_rows),
                n_accounts=np.int64(index.n_accounts),
                max_account_id=np.int64(index.max_account_id),
                values_present=np.bool_(index.values_present),
                partials=index.partials,
                file_size=np.int64(index.file_size),
                file_mtime_ns=np.int64(index.file_mtime_ns),
            )
        with pytest.raises(SizingIndexError) as excinfo:
            load_sizing_index(path)
        assert "version" in str(excinfo.value)

    def test_corrupt_sidecar_raises(self, tmp_path):
        path = _write_csv(tmp_path, PLAIN_CONFIG)
        sizing_index_path(path).write_bytes(b"not an npz archive")
        with pytest.raises(SizingIndexError):
            load_sizing_index(path)


class TestEnginePlugIn:
    def _config(self, **kwargs):
        return SimulationConfig(
            params=ProtocolParams(k=4, eta=2.0, tau=20, seed=3), **kwargs
        )

    def test_indexed_metrics_run_is_bit_identical(self, tmp_path):
        path = _write_csv(tmp_path, VALUED_CONFIG)
        config = self._config()
        two_pass = _records(path, config)
        write_sizing_index(path)
        one_pass = _records(path, config)
        _assert_identical(two_pass, one_pass)

    def test_indexed_observed_funding_run_is_bit_identical(self, tmp_path):
        path = _write_csv(tmp_path, VALUED_CONFIG)
        config = self._config(
            execute_values=True,
            funding=FUNDING_OBSERVED,
            funding_headroom=0.25,
        )
        two_pass = _records(path, config)
        write_sizing_index(path)
        one_pass = _records(path, config)
        _assert_identical(two_pass, one_pass)

    def test_indexed_run_skips_the_sizing_stream(self, tmp_path):
        """With a valid sidecar the source is streamed exactly once:
        its registry sees every row once and the peak buffer mark is
        set by the single evaluation pass."""
        path = _write_csv(tmp_path, PLAIN_CONFIG)
        write_sizing_index(path)

        class CountingSource(CsvTraceSource):
            passes = 0

            def chunks(self):
                type(self).passes += 1
                yield from super().chunks()

        source = CountingSource(path, chunk_rows=599, decoder="python")
        Simulation(source, HashAllocator(), self._config()).run()
        assert CountingSource.passes == 1

    def test_non_csv_sources_are_unaffected(self):
        trace = generate_ethereum_like_trace(PLAIN_CONFIG)
        source = MaterialisedTraceSource(trace)
        assert source.sizing_index() is None


class TestCliGeneration:
    def test_generate_writes_sidecar_on_request(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main(
            [
                "generate",
                str(out_path),
                "--accounts",
                "300",
                "--transactions",
                "2000",
                "--blocks",
                "300",
                "--sizing-index",
            ]
        )
        assert code == 0
        sidecar = sizing_index_path(out_path)
        assert sidecar.exists()
        assert "sizing index" in capsys.readouterr().out
        index = load_sizing_index(out_path)
        assert isinstance(index, SizingIndex)
        assert index.n_rows > 0

    def test_generate_without_flag_writes_no_sidecar(self, tmp_path):
        out_path = tmp_path / "trace.csv"
        assert (
            main(
                [
                    "generate",
                    str(out_path),
                    "--accounts",
                    "200",
                    "--transactions",
                    "1000",
                    "--blocks",
                    "200",
                ]
            )
            == 0
        )
        assert not sizing_index_path(out_path).exists()
