"""Unit tests for trace containers and epoch slicing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.transaction import TransactionBatch
from repro.data.trace import Trace
from repro.errors import DataError


def make_trace(blocks, n_accounts=10):
    n = len(blocks)
    senders = np.arange(n) % (n_accounts - 1)
    receivers = senders + 1
    return Trace(
        TransactionBatch(senders, receivers, np.asarray(blocks)),
        n_accounts=n_accounts,
    )


class TestConstruction:
    def test_infers_universe_from_batch(self):
        trace = Trace(TransactionBatch(np.array([0]), np.array([7])))
        assert trace.n_accounts == 8

    def test_rejects_undersized_universe(self):
        with pytest.raises(DataError):
            Trace(TransactionBatch(np.array([0]), np.array([7])), n_accounts=5)

    def test_rejects_unsorted_blocks(self):
        with pytest.raises(DataError):
            make_trace([3, 1, 2])

    def test_block_span(self):
        trace = make_trace([5, 5, 9])
        assert trace.first_block == 5
        assert trace.last_block == 9

    def test_empty_trace_properties(self):
        trace = Trace(TransactionBatch.empty(), n_accounts=3)
        assert len(trace) == 0


class TestSplit:
    def test_respects_block_boundaries(self):
        # 10 txs over blocks [0,0,0,1,1,1,2,2,2,3]: a 50% cut must not
        # split block 1's transactions.
        trace = make_trace([0, 0, 0, 1, 1, 1, 2, 2, 2, 3])
        head, tail = trace.split(0.5)
        assert len(head) == 6
        assert len(tail) == 4
        assert head.last_block < tail.first_block

    def test_extreme_fractions(self):
        trace = make_trace([0, 1, 2])
        head, tail = trace.split(0.0)
        assert len(head) == 0 and len(tail) == 3
        head, tail = trace.split(1.0)
        assert len(head) == 3 and len(tail) == 0

    def test_split_preserves_universe(self):
        trace = make_trace([0, 1, 2], n_accounts=42)
        head, tail = trace.split(0.5)
        assert head.n_accounts == 42
        assert tail.n_accounts == 42


class TestEpochs:
    def test_epoch_boundaries(self):
        trace = make_trace([0, 1, 2, 3, 4, 5])
        epochs = trace.epoch_list(tau=2)
        assert [len(e) for e in epochs] == [2, 2, 2]
        assert [e.first_block for e in epochs] == [0, 2, 4]
        assert [e.index for e in epochs] == [0, 1, 2]

    def test_epochs_cover_all_transactions(self):
        trace = make_trace([0, 0, 3, 7, 7, 9])
        epochs = trace.epoch_list(tau=4)
        assert sum(len(e) for e in epochs) == 6

    def test_max_epochs(self):
        trace = make_trace(list(range(10)))
        epochs = trace.epoch_list(tau=2, max_epochs=3)
        assert len(epochs) == 3

    def test_empty_epochs_are_yielded(self):
        trace = make_trace([0, 9])
        epochs = trace.epoch_list(tau=2)
        assert len(epochs) == 5
        assert [len(e) for e in epochs] == [1, 0, 0, 0, 1]

    def test_rejects_bad_tau(self):
        with pytest.raises(DataError):
            make_trace([0]).epoch_list(tau=0)

    def test_epochs_start_at_first_block(self):
        trace = make_trace([100, 101, 150])
        epochs = trace.epoch_list(tau=50)
        assert epochs[0].first_block == 100
        assert len(epochs[0]) == 2


class TestActivity:
    def test_active_accounts(self):
        trace = Trace(
            TransactionBatch(np.array([0]), np.array([2])), n_accounts=5
        )
        assert list(trace.active_accounts()) == [0, 2]


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(0, 50), min_size=1, max_size=80),
    tau=st.integers(1, 20),
    fraction=st.floats(0.0, 1.0),
)
def test_split_and_epochs_conserve_transactions(blocks, tau, fraction):
    """Property: no transaction is lost by split or epoch slicing."""
    trace = make_trace(sorted(blocks), n_accounts=60)
    head, tail = trace.split(fraction)
    assert len(head) + len(tail) == len(trace)
    total = sum(len(e) for e in trace.epochs(tau))
    assert total == len(trace)
