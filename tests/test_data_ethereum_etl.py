"""Unit tests for the synthetic Ethereum trace generator and the ETL."""

import numpy as np
import pytest

from repro.chain.account import AccountRegistry
from repro.data.ethereum import EthereumTraceConfig, generate_ethereum_like_trace
from repro.data.etl import read_transactions_csv, write_transactions_csv
from repro.data.generators import ValueModelConfig
from repro.errors import DataError, MalformedRowError


def small_config(**overrides):
    defaults = dict(
        n_accounts=500, n_transactions=5_000, n_blocks=500, seed=2
    )
    defaults.update(overrides)
    return EthereumTraceConfig(**defaults)


class TestGenerator:
    def test_shape_and_universe(self):
        trace = generate_ethereum_like_trace(small_config())
        assert len(trace) == 5_000
        assert trace.n_accounts == 500
        assert trace.batch.max_account_id() < 500

    def test_deterministic_per_seed(self):
        a = generate_ethereum_like_trace(small_config(seed=7))
        b = generate_ethereum_like_trace(small_config(seed=7))
        assert np.array_equal(a.batch.senders, b.batch.senders)
        assert np.array_equal(a.batch.receivers, b.batch.receivers)

    def test_seed_changes_output(self):
        a = generate_ethereum_like_trace(small_config(seed=7))
        b = generate_ethereum_like_trace(small_config(seed=8))
        assert not np.array_equal(a.batch.senders, b.batch.senders)

    def test_blocks_sorted_within_range(self):
        trace = generate_ethereum_like_trace(small_config())
        assert (np.diff(trace.batch.blocks) >= 0).all()
        assert trace.batch.blocks.max() < 500

    def test_no_self_transfers(self):
        trace = generate_ethereum_like_trace(small_config())
        assert (trace.batch.senders != trace.batch.receivers).all()

    def test_heavy_tail_present(self):
        trace = generate_ethereum_like_trace(small_config())
        batch = trace.batch
        activity = np.bincount(
            np.concatenate([batch.senders, batch.receivers]),
            minlength=trace.n_accounts,
        )
        activity = np.sort(activity)[::-1]
        top_share = activity[:5].sum() / activity.sum()
        assert top_share > 0.10  # a handful of hubs dominate

    def test_new_accounts_arrive_late(self):
        config = small_config(new_account_fraction=0.2)
        trace = generate_ethereum_like_trace(config)
        n_established = 500 - int(round(500 * 0.2))
        new_mask = (trace.batch.senders >= n_established) | (
            trace.batch.receivers >= n_established
        )
        assert new_mask.any()
        first_new = np.flatnonzero(new_mask)[0]
        assert first_new > len(trace) * 0.5

    def test_zero_new_accounts(self):
        trace = generate_ethereum_like_trace(
            small_config(new_account_fraction=0.0)
        )
        assert trace.batch.max_account_id() < 500

    def test_repeated_counterparties(self):
        """Pilot's signal: accounts re-interact with the same peers."""
        trace = generate_ethereum_like_trace(small_config())
        lo = np.minimum(trace.batch.senders, trace.batch.receivers)
        hi = np.maximum(trace.batch.senders, trace.batch.receivers)
        pairs = lo * 500 + hi
        unique_ratio = len(np.unique(pairs)) / len(pairs)
        assert unique_ratio < 0.8  # many repeated pairs

    def test_rejects_invalid_config(self):
        with pytest.raises(DataError):
            EthereumTraceConfig(n_accounts=5)
        with pytest.raises(DataError):
            EthereumTraceConfig(n_transactions=0)
        with pytest.raises(Exception):
            EthereumTraceConfig(hub_fraction=2.0)


class TestEtlRoundtrip:
    def test_write_then_read(self, tmp_path):
        trace = generate_ethereum_like_trace(small_config(n_transactions=300))
        path = tmp_path / "transactions.csv"
        rows = write_transactions_csv(path, trace)
        assert rows == 300
        loaded, registry = read_transactions_csv(path)
        assert len(loaded) == 300
        assert len(registry) == len(trace.active_accounts())
        # Block structure preserved.
        assert np.array_equal(loaded.batch.blocks, trace.batch.blocks)

    def test_read_skips_contract_creations(self, tmp_path):
        path = tmp_path / "transactions.csv"
        path.write_text(
            "hash,block_number,from_address,to_address,value\n"
            f"0x0,1,{'0x' + 'aa' * 20},,0\n"
            f"0x1,2,{'0x' + 'aa' * 20},{'0x' + 'bb' * 20},0\n"
        )
        trace, registry = read_transactions_csv(path)
        assert len(trace) == 1
        assert len(registry) == 2

    def test_read_skips_self_transfers(self, tmp_path):
        path = tmp_path / "transactions.csv"
        addr = "0x" + "aa" * 20
        path.write_text(
            "hash,block_number,from_address,to_address,value\n"
            f"0x0,1,{addr},{addr},0\n"
        )
        trace, _ = read_transactions_csv(path)
        assert len(trace) == 0

    def test_read_sorts_by_block(self, tmp_path):
        path = tmp_path / "transactions.csv"
        a, b = "0x" + "aa" * 20, "0x" + "bb" * 20
        path.write_text(
            "hash,block_number,from_address,to_address,value\n"
            f"0x0,5,{a},{b},0\n"
            f"0x1,2,{b},{a},0\n"
        )
        trace, _ = read_transactions_csv(path)
        assert list(trace.batch.blocks) == [2, 5]

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("hash,value\n0x0,1\n")
        with pytest.raises(DataError, match="missing columns"):
            read_transactions_csv(path)

    def test_bad_block_number_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        a, b = "0x" + "aa" * 20, "0x" + "bb" * 20
        path.write_text(
            "hash,block_number,from_address,to_address,value\n"
            f"0x0,not-a-number,{a},{b},0\n"
        )
        with pytest.raises(DataError, match="block_number"):
            read_transactions_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_transactions_csv(path)

    def test_write_with_registry(self, tmp_path):
        trace = generate_ethereum_like_trace(small_config(n_transactions=50))
        registry = AccountRegistry.synthetic(trace.n_accounts)
        path = tmp_path / "transactions.csv"
        write_transactions_csv(path, trace, registry)
        loaded, _ = read_transactions_csv(path)
        assert len(loaded) == 50

    def test_values_and_fees_round_trip_exactly(self, tmp_path):
        trace = generate_ethereum_like_trace(
            small_config(
                n_transactions=400,
                value_model=ValueModelConfig(fee_fraction=0.03),
            )
        )
        assert trace.batch.values is not None
        assert trace.batch.fees is not None
        path = tmp_path / "valued.csv"
        write_transactions_csv(path, trace)
        loaded, _ = read_transactions_csv(path)
        assert np.array_equal(loaded.batch.values, trace.batch.values)
        assert np.array_equal(loaded.batch.fees, trace.batch.fees)

    def test_valueless_trace_round_trips_valueless(self, tmp_path):
        """A metric trace is written without a value column and reads
        back with *no* value column from both readers, so executed
        replays keep the executor's default transfer amount instead of
        moving zero."""
        trace = generate_ethereum_like_trace(small_config(n_transactions=40))
        path = tmp_path / "plain.csv"
        write_transactions_csv(path, trace)
        header = path.read_text().splitlines()[0]
        assert header == "hash,block_number,from_address,to_address"
        loaded, _ = read_transactions_csv(path)
        assert loaded.batch.values is None
        assert loaded.batch.fees is None  # no fee column written
        from repro.data import CsvTraceSource

        streamed = CsvTraceSource(path).materialise()
        assert streamed.batch.values is None


class TestMalformedRows:
    HEADER = "hash,block_number,from_address,to_address,value\n"
    A, B = "0x" + "aa" * 20, "0x" + "bb" * 20

    def test_bad_block_number_carries_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            self.HEADER
            + f"0x0,1,{self.A},{self.B},0\n"
            + f"0x1,not-a-number,{self.A},{self.B},0\n"
        )
        with pytest.raises(MalformedRowError) as excinfo:
            read_transactions_csv(path)
        assert excinfo.value.line == 3
        assert excinfo.value.path.endswith("bad.csv")
        assert "block_number" in str(excinfo.value)

    def test_negative_block_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + f"0x0,-4,{self.A},{self.B},0\n")
        with pytest.raises(MalformedRowError, match="block_number"):
            read_transactions_csv(path)

    def test_bad_value_carries_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + f"0x0,1,{self.A},{self.B},tomato\n")
        with pytest.raises(MalformedRowError) as excinfo:
            read_transactions_csv(path)
        assert excinfo.value.line == 2
        assert "value" in excinfo.value.reason

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + f"0x0,1,{self.A},{self.B},-3\n")
        with pytest.raises(MalformedRowError, match="value"):
            read_transactions_csv(path)

    @pytest.mark.parametrize("column", ["value", "fee"])
    def test_infinite_amount_rejected(self, tmp_path, column):
        path = tmp_path / "bad.csv"
        cells = {"value": "inf", "fee": "1"} if column == "value" else {
            "value": "1", "fee": "inf"
        }
        path.write_text(
            "hash,block_number,from_address,to_address,value,fee\n"
            f"0x0,1,{self.A},{self.B},{cells['value']},{cells['fee']}\n"
        )
        with pytest.raises(MalformedRowError) as excinfo:
            read_transactions_csv(path)
        assert excinfo.value.line == 2
        assert excinfo.value.reason == f"bad {column} 'inf'"

    def test_bad_fee_carries_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "hash,block_number,from_address,to_address,value,fee\n"
            f"0x0,1,{self.A},{self.B},2,soup\n"
        )
        with pytest.raises(MalformedRowError) as excinfo:
            read_transactions_csv(path)
        assert excinfo.value.line == 2
        assert "fee" in excinfo.value.reason

    @pytest.mark.parametrize("column", ["from_address", "to_address"])
    def test_bad_address_carries_file_and_line(self, tmp_path, column):
        """A non-hex address is a malformed row, from both decoders."""
        bad = "0xnothex"
        sender, receiver = (
            (bad, self.B) if column == "from_address" else (self.A, bad)
        )
        path = tmp_path / "bad.csv"
        path.write_text(
            self.HEADER
            + f"0x0,1,{self.A},{self.B},2\n"
            + f"0x1,2,{sender},{receiver},2\n"
        )
        from repro.data import CsvTraceSource

        def stream(p):
            return list(CsvTraceSource(p).chunks())

        for decode in (read_transactions_csv, stream):
            with pytest.raises(MalformedRowError) as excinfo:
                decode(path)
            assert excinfo.value.line == 3
            assert excinfo.value.path.endswith("bad.csv")
            assert column in excinfo.value.reason

    def test_blank_lines_are_skipped(self, tmp_path):
        """csv.DictReader skipped blank rows; the decoder must too."""
        path = tmp_path / "gappy.csv"
        path.write_text(
            self.HEADER
            + f"0x0,1,{self.A},{self.B},2\n"
            + "\n"
            + f"0x1,3,{self.B},{self.A},4\n"
            + "\n"
        )
        trace, _ = read_transactions_csv(path)
        assert len(trace) == 2
        from repro.data import CsvTraceSource

        streamed = CsvTraceSource(path).materialise()
        assert len(streamed) == 2

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "0x0,1\n")
        with pytest.raises(MalformedRowError, match="columns"):
            read_transactions_csv(path)

    def test_malformed_row_is_a_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + f"0x0,zzz,{self.A},{self.B},0\n")
        with pytest.raises(DataError):
            read_transactions_csv(path)

    def test_header_only_csv_is_an_empty_trace(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(self.HEADER)
        trace, registry = read_transactions_csv(path)
        assert len(trace) == 0
        assert len(registry) == 0
