"""Arrow-vs-python chunk-stream equivalence for ``CsvTraceSource``.

Contract under test: the ``decoder`` knob never changes what a consumer
observes. The arrow columnar path must produce the same chunk stream
(chunk sizes, columns, lazy value activation), the same dense account
ids, and the same typed errors as the python reference decoder — under
randomized ``chunk_rows`` and on the malformed-row / empty-file /
header-only fixtures.

The knob-resolution and fallback tests run everywhere. The equivalence
suites need pyarrow and are skipped without it (the CI fast lane runs
them; the fallback lane proves the package works with pyarrow absent).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.account import AccountRegistry
from repro.data import (
    CsvTraceSource,
    EthereumTraceConfig,
    PYARROW_AVAILABLE,
    ValueModelConfig,
    generate_ethereum_like_trace,
    resolve_decoder,
    write_transactions_csv,
)
from repro.errors import DataError, MalformedRowError, ValidationError

needs_pyarrow = pytest.mark.skipif(
    not PYARROW_AVAILABLE, reason="pyarrow not installed"
)

ADDR_A = "0x" + "aa" * 20
ADDR_B = "0x" + "bb" * 20
ADDR_C = "0x" + "cc" * 20

HEADER = "hash,block_number,from_address,to_address,value"


def write_csv(path, lines):
    path.write_text("\n".join([HEADER] + list(lines)) + "\n")
    return path


def valued_csv(tmp_path, seed=5, n=2_000):
    config = EthereumTraceConfig(
        n_accounts=200,
        n_transactions=n,
        n_blocks=250,
        seed=seed,
        value_model=ValueModelConfig(fee_fraction=0.05),
    )
    path = tmp_path / f"trace_{seed}_{n}.csv"
    write_transactions_csv(path, generate_ethereum_like_trace(config))
    return path


def assert_batches_equal(a, b):
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


class TestDecoderKnob:
    def test_resolve_python_is_always_python(self):
        assert resolve_decoder("python") == "python"

    def test_resolve_auto_tracks_pyarrow(self):
        expected = "arrow" if PYARROW_AVAILABLE else "python"
        assert resolve_decoder("auto") == expected

    def test_resolve_rejects_unknown(self):
        with pytest.raises(DataError):
            resolve_decoder("pandas")

    @pytest.mark.skipif(PYARROW_AVAILABLE, reason="pyarrow installed")
    def test_explicit_arrow_without_pyarrow_raises(self):
        with pytest.raises(DataError, match="pyarrow"):
            resolve_decoder("arrow")

    def test_source_rejects_unknown_decoder(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [])
        with pytest.raises(DataError):
            CsvTraceSource(path, decoder="columnar")

    def test_auto_source_works_without_pyarrow(self, tmp_path):
        # On any environment, auto must decode; without pyarrow it is
        # simply the python reference.
        path = write_csv(
            tmp_path / "t.csv", [f"0x0,1,{ADDR_A},{ADDR_B},5.0"]
        )
        trace = CsvTraceSource(path, decoder="auto").materialise()
        assert len(trace) == 1


class TestErrorFixturesPythonPath:
    """The reference behaviour the arrow path must reproduce."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        for decoder in ("python", "auto"):
            with pytest.raises(DataError, match="empty"):
                list(CsvTraceSource(path, decoder=decoder).chunks())

    def test_header_only_yields_nothing(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(HEADER + "\n")
        for decoder in ("python", "auto"):
            assert list(CsvTraceSource(path, decoder=decoder).chunks()) == []

    def test_malformed_block_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "bad.csv",
            [
                f"0x0,1,{ADDR_A},{ADDR_B},5.0",
                f"0x1,oops,{ADDR_A},{ADDR_C},1.0",
            ],
        )
        for decoder in ("python", "auto"):
            with pytest.raises(MalformedRowError, match=r"\.csv:3: "):
                list(CsvTraceSource(path, decoder=decoder).chunks())

    def test_out_of_order_block_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "ooo.csv",
            [
                f"0x0,9,{ADDR_A},{ADDR_B},5.0",
                f"0x1,3,{ADDR_A},{ADDR_C},1.0",
            ],
        )
        for decoder in ("python", "auto"):
            with pytest.raises(MalformedRowError, match="out of order"):
                list(CsvTraceSource(path, decoder=decoder).chunks())

    def test_invalid_address_raises_validation_error(self, tmp_path):
        path = write_csv(
            tmp_path / "addr.csv",
            [f"0x0,1,{ADDR_A},0x1234,5.0"],
        )
        for decoder in ("python", "auto"):
            with pytest.raises(ValidationError):
                list(CsvTraceSource(path, decoder=decoder).chunks())

    def test_negative_value_names_line(self, tmp_path):
        path = write_csv(
            tmp_path / "neg.csv",
            [f"0x0,1,{ADDR_A},{ADDR_B},-2.0"],
        )
        for decoder in ("python", "auto"):
            with pytest.raises(MalformedRowError, match=r"\.csv:2: "):
                list(CsvTraceSource(path, decoder=decoder).chunks())

    def test_skips_contract_creations_and_self_transfers(self, tmp_path):
        path = write_csv(
            tmp_path / "skip.csv",
            [
                f"0x0,1,{ADDR_A},,5.0",  # contract creation: skipped
                f"0x1,1,{ADDR_A},{ADDR_A},5.0",  # self-transfer: skipped
                f"0x2,2,{ADDR_A},{ADDR_B},5.0",
            ],
        )
        for decoder in ("python", "auto"):
            registry = AccountRegistry()
            source = CsvTraceSource(path, registry=registry, decoder=decoder)
            chunks = list(source.chunks())
            assert sum(len(c) for c in chunks) == 1
            # Self-transfer endpoints register even though the row is
            # dropped, so ids are identical across decoders.
            assert registry.id_of(ADDR_A) == 0
            assert registry.id_of(ADDR_B) == 1


@needs_pyarrow
class TestArrowEquivalence:
    def test_stream_matches_python_chunk_for_chunk(self, tmp_path):
        path = valued_csv(tmp_path)
        py = CsvTraceSource(path, chunk_rows=257, decoder="python")
        ar = CsvTraceSource(path, chunk_rows=257, decoder="arrow")
        py_chunks = list(py.chunks())
        ar_chunks = list(ar.chunks())
        assert len(py_chunks) == len(ar_chunks)
        for a, b in zip(py_chunks, ar_chunks):
            assert_batches_equal(a, b)
        assert py.resolved_n_accounts() == ar.resolved_n_accounts()

    def test_registries_identical(self, tmp_path):
        path = valued_csv(tmp_path, seed=9)
        reg_py = AccountRegistry()
        reg_ar = AccountRegistry()
        list(CsvTraceSource(path, registry=reg_py, decoder="python").chunks())
        list(CsvTraceSource(path, registry=reg_ar, decoder="arrow").chunks())
        assert len(reg_py) == len(reg_ar)
        assert all(
            reg_py.address_of(i) == reg_ar.address_of(i)
            for i in range(len(reg_py))
        )

    @settings(deadline=None, max_examples=12)
    @given(chunk_rows=st.integers(1, 700))
    def test_equivalence_under_randomized_chunk_rows(
        self, tmp_path_factory, chunk_rows
    ):
        tmp_path = tmp_path_factory.mktemp("arrow_eq")
        path = valued_csv(tmp_path, seed=3, n=600)
        py = CsvTraceSource(
            path, chunk_rows=chunk_rows, decoder="python"
        ).materialise()
        ar = CsvTraceSource(
            path, chunk_rows=chunk_rows, decoder="arrow"
        ).materialise()
        assert_batches_equal(py.batch, ar.batch)
        assert py.n_accounts == ar.n_accounts

    def test_zero_value_column_stays_inactive(self, tmp_path):
        path = write_csv(
            tmp_path / "zeros.csv",
            [
                f"0x0,1,{ADDR_A},{ADDR_B},0",
                f"0x1,2,{ADDR_B},{ADDR_C},0",
            ],
        )
        trace = CsvTraceSource(path, decoder="arrow").materialise()
        assert trace.batch.values is None

    def test_lazy_value_activation_matches(self, tmp_path):
        lines = [f"0x{i},{i},{ADDR_A},{ADDR_B},0" for i in range(5)]
        lines.append(f"0x9,9,{ADDR_A},{ADDR_B},7.5")
        path = write_csv(tmp_path / "lazy.csv", lines)
        py = CsvTraceSource(path, chunk_rows=2, decoder="python")
        ar = CsvTraceSource(path, chunk_rows=2, decoder="arrow")
        for a, b in zip(py.chunks(), ar.chunks()):
            assert_batches_equal(a, b)

    def test_peak_buffer_is_bounded(self, tmp_path):
        path = valued_csv(tmp_path, seed=4, n=2_000)
        source = CsvTraceSource(path, chunk_rows=100, decoder="arrow")
        total = sum(len(c) for c in source.chunks())
        assert total > 1_000
        # Columnar batches buffer more than one python-path chunk, but
        # the high-water mark must stay far below the whole file.
        assert source.peak_buffer_rows < total
