"""TraceSource suite: chunked ingest and streamed epoch slicing.

The contract under test: a streamed consumer sees *exactly* what a
materialised consumer sees. Chunk boundaries are an implementation
detail — randomized chunk sizes must never change the assembled trace,
the dense account ids, the value/fee columns, or the epoch slicing —
and buffering must stay proportional to the chunk size, never the
trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.account import AccountRegistry
from repro.chain.transaction import TransactionBatch
from repro.data import (
    CsvTraceSource,
    EpochStream,
    EthereumTraceConfig,
    MaterialisedTraceSource,
    Trace,
    ValueModelConfig,
    generate_ethereum_like_trace,
    read_transactions_csv,
    write_transactions_csv,
)
from repro.errors import DataError, MalformedRowError

ADDR_A = "0x" + "aa" * 20
ADDR_B = "0x" + "bb" * 20
ADDR_C = "0x" + "cc" * 20

HEADER = "hash,block_number,from_address,to_address,value"


def valued_config(**overrides):
    defaults = dict(
        n_accounts=300,
        n_transactions=2_000,
        n_blocks=300,
        seed=5,
        value_model=ValueModelConfig(fee_fraction=0.05),
    )
    defaults.update(overrides)
    return EthereumTraceConfig(**defaults)


def write_csv(path, lines):
    path.write_text("\n".join([HEADER] + list(lines)) + "\n")
    return path


def assert_batches_equal(a: TransactionBatch, b: TransactionBatch) -> None:
    assert np.array_equal(a.senders, b.senders)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.blocks, b.blocks)
    if a.values is None or b.values is None:
        assert a.values is None and b.values is None
    else:
        assert np.array_equal(a.values, b.values)
    if a.fees is None or b.fees is None:
        assert a.fees is None and b.fees is None
    else:
        assert np.array_equal(a.fees, b.fees)


class TestMaterialisedSource:
    def test_chunks_reassemble_to_the_trace(self):
        trace = generate_ethereum_like_trace(valued_config())
        source = MaterialisedTraceSource(trace, chunk_rows=97)
        chunks = list(source.chunks())
        assert all(len(c) <= 97 for c in chunks)
        assert sum(len(c) for c in chunks) == len(trace)
        assert_batches_equal(TransactionBatch.concat_many(chunks), trace.batch)
        assert source.resolved_n_accounts() == trace.n_accounts

    def test_materialise_returns_the_same_trace(self):
        trace = generate_ethereum_like_trace(valued_config())
        assert MaterialisedTraceSource(trace).materialise() is trace

    def test_rejects_bad_chunk_rows(self):
        trace = generate_ethereum_like_trace(valued_config())
        with pytest.raises(DataError):
            MaterialisedTraceSource(trace, chunk_rows=0)


class TestCsvSource:
    def test_streamed_equals_eager_read(self, tmp_path):
        trace = generate_ethereum_like_trace(valued_config())
        path = tmp_path / "t.csv"
        write_transactions_csv(path, trace)
        eager, registry = read_transactions_csv(path)
        source = CsvTraceSource(path, chunk_rows=173)
        streamed = source.materialise()
        assert_batches_equal(streamed.batch, eager.batch)
        assert streamed.n_accounts == eager.n_accounts
        assert len(source.registry) == len(registry)

    def test_peak_buffer_is_chunk_bounded(self, tmp_path):
        trace = generate_ethereum_like_trace(valued_config())
        path = tmp_path / "t.csv"
        write_transactions_csv(path, trace)
        source = CsvTraceSource(path, chunk_rows=100)
        source.materialise()
        assert 0 < source.peak_buffer_rows <= 100

    def test_out_of_order_rows_rejected_with_line(self, tmp_path):
        a, b = "0x" + "aa" * 20, "0x" + "bb" * 20
        path = tmp_path / "unsorted.csv"
        path.write_text(
            "hash,block_number,from_address,to_address,value\n"
            f"0x0,5,{a},{b},1\n"
            f"0x1,2,{b},{a},1\n"
        )
        source = CsvTraceSource(path)
        with pytest.raises(MalformedRowError) as excinfo:
            list(source.chunks())
        assert excinfo.value.line == 3
        assert excinfo.value.path.endswith("unsorted.csv")
        # The eager reader accepts the same file by sorting.
        eager, _ = read_transactions_csv(path)
        assert eager.batch.blocks.tolist() == [2, 5]

    def test_empty_file_and_missing_columns(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError):
            list(CsvTraceSource(empty).chunks())
        bad = tmp_path / "bad.csv"
        bad.write_text("hash,value\n0x0,1\n")
        with pytest.raises(DataError, match="missing columns"):
            list(CsvTraceSource(bad).chunks())

    def test_header_only_yields_no_chunks(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("hash,block_number,from_address,to_address,value\n")
        source = CsvTraceSource(path)
        assert list(source.chunks()) == []
        trace = CsvTraceSource(path).materialise()
        assert len(trace) == 0

    def test_all_zero_value_column_is_kept_in_chunks_too(self, tmp_path):
        """A ``value`` header makes a value column whatever its cells
        hold: every chunk of an all-zero file carries zeros, so
        EpochStream and Trace.epochs see identical batches."""
        trace = generate_ethereum_like_trace(valued_config(n_transactions=300))
        trace.batch.values[:] = 0.0
        path = tmp_path / "zeros.csv"
        write_transactions_csv(path, trace)
        source = CsvTraceSource(path, chunk_rows=64)
        chunks = list(source.chunks())
        assert len(chunks) > 1
        assert all(
            c.values is not None and not c.values.any() for c in chunks
        )
        streamed = CsvTraceSource(path).materialise()
        eager, _ = read_transactions_csv(path)
        assert_batches_equal(streamed.batch, eager.batch)
        assert np.array_equal(eager.batch.values, np.zeros(len(trace)))
        streamed_epochs = list(
            EpochStream(CsvTraceSource(path, chunk_rows=64).chunks(), tau=50)
        )
        for got, want in zip(streamed_epochs, eager.epoch_list(50)):
            assert_batches_equal(got.batch, want.batch)

    @settings(max_examples=20, deadline=None)
    @given(chunk_rows=st.integers(1, 500), seed=st.integers(0, 20))
    def test_chunk_size_never_changes_the_trace(
        self, tmp_path_factory, chunk_rows, seed
    ):
        tmp_path = tmp_path_factory.mktemp("csv")
        trace = generate_ethereum_like_trace(
            valued_config(n_transactions=400, seed=seed)
        )
        path = tmp_path / "t.csv"
        write_transactions_csv(path, trace)
        reference, _ = read_transactions_csv(path)
        streamed = CsvTraceSource(path, chunk_rows=chunk_rows).materialise()
        assert_batches_equal(streamed.batch, reference.batch)


class TestDecoderKnob:
    def test_source_rejects_unknown_decoder(self, tmp_path):
        """``"python"`` is the one decoder; the retired ``"arrow"`` and
        ``"auto"`` are as unknown as any other name."""
        path = write_csv(
            tmp_path / "t.csv", [f"0x0,1,{ADDR_A},{ADDR_B},5.0"]
        )
        assert len(CsvTraceSource(path, decoder="python").materialise()) == 1
        for unknown in ("columnar", "arrow", "auto"):
            with pytest.raises(DataError, match="python"):
                CsvTraceSource(path, decoder=unknown)


class TestErrorFixturesPythonPath:
    """Typed errors and row skips of the CSV decoder on small fixtures."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            list(CsvTraceSource(path).chunks())

    def test_header_only_yields_nothing(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(HEADER + "\n")
        assert list(CsvTraceSource(path).chunks()) == []

    def test_malformed_block_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "bad.csv",
            [
                f"0x0,1,{ADDR_A},{ADDR_B},5.0",
                f"0x1,oops,{ADDR_A},{ADDR_C},1.0",
            ],
        )
        with pytest.raises(MalformedRowError, match=r"\.csv:3: "):
            list(CsvTraceSource(path).chunks())

    def test_out_of_order_block_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "ooo.csv",
            [
                f"0x0,9,{ADDR_A},{ADDR_B},5.0",
                f"0x1,3,{ADDR_A},{ADDR_C},1.0",
            ],
        )
        with pytest.raises(MalformedRowError, match="out of order"):
            list(CsvTraceSource(path).chunks())

    def test_invalid_address_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "addr.csv",
            [f"0x0,1,{ADDR_A},0x1234,5.0"],
        )
        with pytest.raises(MalformedRowError, match=r"\.csv:2: bad to_address"):
            list(CsvTraceSource(path).chunks())

    def test_negative_value_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "neg.csv",
            [f"0x0,1,{ADDR_A},{ADDR_B},-2.0"],
        )
        with pytest.raises(MalformedRowError, match=r"\.csv:2: "):
            list(CsvTraceSource(path).chunks())

    def test_infinite_value_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "inf.csv",
            [f"0x0,1,{ADDR_A},{ADDR_B},5.0", f"0x1,2,{ADDR_A},{ADDR_C},inf"],
        )
        with pytest.raises(MalformedRowError, match=r"\.csv:3: bad value 'inf'"):
            list(CsvTraceSource(path).chunks())

    def test_skips_contract_creations_and_self_transfers(self, tmp_path):
        path = write_csv(
            tmp_path / "skip.csv",
            [
                f"0x0,1,{ADDR_A},,5.0",  # contract creation: skipped
                f"0x1,1,{ADDR_A},{ADDR_A},5.0",  # self-transfer: skipped
                f"0x2,2,{ADDR_A},{ADDR_B},5.0",
            ],
        )
        registry = AccountRegistry()
        source = CsvTraceSource(path, registry=registry)
        chunks = list(source.chunks())
        assert sum(len(c) for c in chunks) == 1
        # Self-transfer endpoints register even though the row is
        # dropped, so ids match the eager reader's.
        assert registry.address_of(0) == ADDR_A
        assert registry.address_of(1) == ADDR_B


class TestReadersAgree:
    """The eager reader and the chunked source decode the same rows
    from valid CSV, a quoted cell spanning a newline included, and name
    the same physical line on a bad row."""

    READERS = {
        "eager": lambda path: read_transactions_csv(path)[0],
        "chunked": lambda path: CsvTraceSource(path, chunk_rows=2).materialise(),
    }

    def _write(self, path, last_block):
        return write_csv(
            path,
            [
                f"0x0,1,{ADDR_A},{ADDR_B},5.0",
                f"0x1,2,{ADDR_A},{ADDR_C},1.0",
                f"0x2,2,{ADDR_B},{ADDR_C},2.0",
                f'"0x3\n",3,{ADDR_C},{ADDR_A},4.0',  # lines 5-6
                f"0x4,{last_block},{ADDR_A},{ADDR_B},1.0",  # line 7
            ],
        )

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_multiline_record_and_bad_row_line(self, tmp_path, reader):
        read = self.READERS[reader]
        trace = read(self._write(tmp_path / "good.csv", "4"))
        assert trace.batch.senders.tolist() == [0, 0, 1, 2, 0]
        assert trace.batch.receivers.tolist() == [1, 2, 2, 0, 1]
        assert trace.batch.blocks.tolist() == [1, 2, 2, 3, 4]
        assert trace.batch.values.tolist() == [5.0, 1.0, 2.0, 4.0, 1.0]

        bad = self._write(tmp_path / "bad.csv", "oops")
        with pytest.raises(MalformedRowError) as excinfo:
            read(bad)
        assert str(excinfo.value) == f"{bad}:7: bad block_number 'oops'"


class TestEpochStream:
    @settings(max_examples=30, deadline=None)
    @given(
        chunk_rows=st.integers(1, 700),
        tau=st.integers(1, 90),
        seed=st.integers(0, 10),
        max_epochs=st.one_of(st.none(), st.integers(1, 6)),
    )
    def test_stream_equals_materialised_epochs(
        self, chunk_rows, tau, seed, max_epochs
    ):
        trace = generate_ethereum_like_trace(
            valued_config(n_transactions=1_200, n_blocks=200, seed=seed)
        )
        source = MaterialisedTraceSource(trace, chunk_rows=chunk_rows)
        streamed = list(EpochStream(source.chunks(), tau, max_epochs))
        materialised = trace.epoch_list(tau, max_epochs)
        assert len(streamed) == len(materialised)
        for got, want in zip(streamed, materialised):
            assert got.index == want.index
            assert got.first_block == want.first_block
            assert got.last_block == want.last_block
            assert_batches_equal(got.batch, want.batch)

    def test_buffering_is_epoch_plus_chunk_bounded(self):
        trace = generate_ethereum_like_trace(
            valued_config(n_transactions=3_000, n_blocks=300)
        )
        tau, chunk_rows = 30, 128
        max_epoch_rows = max(
            len(view) for view in trace.epoch_list(tau)
        )
        stream = EpochStream(
            MaterialisedTraceSource(trace, chunk_rows=chunk_rows).chunks(), tau
        )
        total = sum(len(view) for view in stream)
        assert total == len(trace)
        assert stream.peak_buffer_rows <= max_epoch_rows + chunk_rows

    def test_max_epochs_stops_pulling_chunks(self):
        """Once the epoch budget is spent, no further chunk is decoded."""
        trace = generate_ethereum_like_trace(
            valued_config(n_transactions=3_000, n_blocks=300)
        )
        pulled = []

        class CountingSource(MaterialisedTraceSource):
            def chunks(self):
                for chunk in super().chunks():
                    pulled.append(len(chunk))
                    yield chunk

        source = CountingSource(trace, chunk_rows=50)
        epochs = list(EpochStream(source.chunks(), tau=10, max_epochs=2))
        assert [e.index for e in epochs] == [0, 1]
        assert sum(pulled) < len(trace)  # the tail was never pulled

    def test_empty_source_yields_nothing(self):
        empty = Trace(TransactionBatch.empty(), n_accounts=1)
        assert list(EpochStream(MaterialisedTraceSource(empty).chunks(), 10)) == []

    def test_rejects_bad_parameters(self):
        trace = Trace(TransactionBatch.empty(), n_accounts=1)
        source = MaterialisedTraceSource(trace)
        with pytest.raises(DataError):
            EpochStream(source.chunks(), tau=0)
        with pytest.raises(DataError):
            EpochStream(source.chunks(), tau=5, max_epochs=0)

    def test_csv_source_streams_epochs_end_to_end(self, tmp_path):
        trace = generate_ethereum_like_trace(valued_config())
        path = tmp_path / "t.csv"
        write_transactions_csv(path, trace)
        eager, _ = read_transactions_csv(path)
        streamed = list(
            EpochStream(CsvTraceSource(path, chunk_rows=211).chunks(), tau=25)
        )
        for got, want in zip(streamed, eager.epoch_list(25)):
            assert_batches_equal(got.batch, want.batch)
        assert len(streamed) == len(eager.epoch_list(25))
