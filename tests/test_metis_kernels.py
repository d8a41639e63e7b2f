"""Equivalence pinning for the compiled Metis refinement kernels.

``compiled_kernels=True`` must be indistinguishable from the reference
python loops — bit-identical assignments at every entry point, on every
graph. The suites below drive randomized CSR graphs (integral and
fractional edge weights, so both the incremental-scatter and the
dirty-row connection protocols are exercised), plus targeted tie-break
and zero-gain fixtures where divergent tie resolution would first show.

When numba is absent the kernels run interpreted (the ``@njit``
decorator degrades to a no-op), so these tests pin the *algorithm*
equivalence on every environment — the CI fast lane additionally runs
them against the actually-jitted kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.graph import TransactionGraph
from repro.allocation.metis_like import (
    MetisLikeAllocator,
    partition_graph,
    resolve_compiled,
)
from repro.allocation.metis_like.kernels import (
    NUMBA_AVAILABLE,
    describe,
    rebalance_commit,
    refine_commit,
)
from repro.allocation.metis_like.refine import polish_level
from repro.errors import PartitionError
from test_allocation_metis import rebalance, refine_partition


def random_graph(seed, n_low=10, n_high=120, fractional=False):
    """A random directed multigraph with self-loops filtered out."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_low, n_high))
    m = int(rng.integers(n, 5 * n))
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    keep = u != v
    u, v = u[keep], v[keep]
    w = rng.integers(1, 8, size=len(u)).astype(np.float64)
    if fractional:
        w = w + rng.random(len(u))
    graph = TransactionGraph(n)
    for a, b, weight in zip(u.tolist(), v.tolist(), w.tolist()):
        graph.add_edge(a, b, weight)
    return graph, n


def adjacency_of(graph):
    return [graph.neighbors(v) for v in range(graph.n_accounts)]


class TestResolveCompiled:
    def test_bools_pass_through(self):
        assert resolve_compiled(True) is True
        assert resolve_compiled(False) is False

    def test_auto_tracks_numba(self):
        assert resolve_compiled("auto") is NUMBA_AVAILABLE

    @pytest.mark.parametrize("bad", ["yes", 1, None, "jit"])
    def test_rejects_unknown_knobs(self, bad):
        with pytest.raises(PartitionError):
            resolve_compiled(bad)

    def test_describe_names_the_mode(self):
        expected = "jit" if NUMBA_AVAILABLE else "pure-python"
        assert expected in describe()


class TestKernelUnits:
    """Direct kernel-call fixtures for the documented tie-breaks."""

    def test_refine_first_strictly_better_target_wins(self):
        # Vertex 0 in part 0 with equal connectivity to parts 1 and 2:
        # both gains tie, so no strictly-better later candidate may
        # displace the first (reference keeps the first p with
        # gain > best_gain; equal gain must NOT move the target).
        k = 3
        assignment = np.array([0, 1, 2], dtype=np.int64)
        loads = np.array([1.0, 1.0, 1.0])
        counts = np.array([2, 1, 1], dtype=np.int64)  # part 0 can shrink
        weights = np.ones(3)
        # connection rows: vertex 0 equally attracted to parts 1 and 2.
        connection = np.array(
            [[0.0, 2.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        ).ravel()
        indptr = np.array([0, 2, 3, 4], dtype=np.int64)
        indices = np.array([1, 2, 0, 0], dtype=np.int64)
        edge_weights = np.array([2.0, 2.0, 2.0, 2.0])
        moved = refine_commit(
            np.array([0], dtype=np.int64),
            assignment,
            loads,
            counts,
            weights,
            connection,
            indptr,
            indices,
            edge_weights,
            k,
            10.0,
            True,
            np.zeros(0, dtype=np.bool_),
        )
        assert moved
        assert assignment[0] == 1  # first tied part wins, never part 2

    def test_refine_zero_gain_never_moves(self):
        k = 2
        assignment = np.array([0, 1], dtype=np.int64)
        loads = np.array([1.0, 1.0])
        counts = np.array([1, 1], dtype=np.int64)
        weights = np.ones(2)
        connection = np.array([[1.0, 1.0], [1.0, 1.0]]).ravel()
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        edge_weights = np.array([1.0, 1.0])
        moved = refine_commit(
            np.array([0, 1], dtype=np.int64),
            assignment,
            loads,
            counts,
            weights,
            connection,
            indptr,
            indices,
            edge_weights,
            k,
            10.0,
            True,
            np.zeros(0, dtype=np.bool_),
        )
        assert not moved
        assert assignment.tolist() == [0, 1]

    def test_rebalance_load_tie_resolves_to_lowest_part(self):
        # Parts 1 and 2 equally light: argmin semantics demand part 1.
        loads = np.array([5.0, 1.0, 1.0])
        assignment = np.array([0, 0, 0], dtype=np.int64)
        moved = rebalance_commit(
            np.array([0], dtype=np.int64),
            assignment,
            loads,
            np.ones(3),
            0,
            3.0,
        )
        assert moved == 1
        assert assignment[0] == 1
        assert loads.tolist() == [4.0, 2.0, 1.0]

    def test_rebalance_stops_when_part_is_lightest(self):
        loads = np.array([1.0, 5.0])
        assignment = np.array([0], dtype=np.int64)
        moved = rebalance_commit(
            np.array([0], dtype=np.int64),
            assignment,
            loads,
            np.ones(1),
            0,
            0.5,
        )
        assert moved == 0
        assert assignment[0] == 0


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 6))
def test_partition_graph_bit_identical(seed, k):
    fractional = seed % 2 == 1
    graph, _n = random_graph(seed, fractional=fractional)
    reference = partition_graph(graph, k, seed=seed, compiled_kernels=False)
    kernel = partition_graph(graph, k, seed=seed, compiled_kernels=True)
    assert np.array_equal(reference.assignment, kernel.assignment)
    assert reference.cut == kernel.cut
    assert reference.levels == kernel.levels


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_refine_partition_bit_identical(seed, k):
    fractional = seed % 2 == 0
    graph, n = random_graph(seed, fractional=fractional)
    rng = np.random.default_rng(seed)
    start = rng.integers(0, k, size=n).astype(np.int64)
    weights = np.maximum(graph.vertex_weights(), 1.0)
    cap = 1.2 * float(weights.sum()) / k
    adjacency = adjacency_of(graph)
    reference = refine_partition(
        adjacency, weights, start.copy(), k, cap, compiled_kernels=False
    )
    kernel = refine_partition(
        adjacency, weights, start.copy(), k, cap, compiled_kernels=True
    )
    assert np.array_equal(reference, kernel)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_rebalance_bit_identical(seed, k):
    graph, n = random_graph(seed, fractional=seed % 3 == 0)
    rng = np.random.default_rng(seed)
    # Deliberately unbalanced start so the rebalance loop has work.
    start = np.zeros(n, dtype=np.int64)
    start[rng.integers(0, n, size=n // 4)] = rng.integers(
        0, k, size=n // 4
    )
    weights = np.maximum(graph.vertex_weights(), 1.0)
    cap = 1.1 * float(weights.sum()) / k
    adjacency = adjacency_of(graph)
    reference = rebalance(
        adjacency, weights, start.copy(), k, cap, compiled_kernels=False
    )
    kernel = rebalance(
        adjacency, weights, start.copy(), k, cap, compiled_kernels=True
    )
    assert np.array_equal(reference, kernel)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_polish_level_bit_identical(seed, k):
    graph, n = random_graph(seed, fractional=seed % 2 == 1)
    rng = np.random.default_rng(seed)
    start = rng.integers(0, k, size=n).astype(np.int64)
    weights = np.maximum(graph.vertex_weights(), 1.0)
    strict = 1.1 * float(weights.sum()) / k
    relaxed = strict + float(weights.max())
    adjacency = adjacency_of(graph)
    reference = polish_level(
        adjacency,
        weights,
        start.copy(),
        k,
        relaxed,
        strict,
        np.random.default_rng(seed),
        compiled_kernels=False,
    )
    kernel = polish_level(
        adjacency,
        weights,
        start.copy(),
        k,
        relaxed,
        strict,
        np.random.default_rng(seed),
        compiled_kernels=True,
    )
    assert np.array_equal(reference, kernel)


class TestAllocatorKnob:
    def test_allocator_results_identical_across_knob(self, tiny_trace=None):
        from repro.chain.params import ProtocolParams

        rng = np.random.default_rng(3)
        graph_seed = 11
        graph, _ = random_graph(graph_seed)
        from repro.data.trace import Trace
        from repro.chain.transaction import TransactionBatch

        n = graph.n_accounts
        m = 4_000
        batch = TransactionBatch(
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            np.sort(rng.integers(0, 200, size=m)),
        )
        keep = batch.senders != batch.receivers
        batch = TransactionBatch(
            batch.senders[keep], batch.receivers[keep], batch.blocks[keep]
        )
        trace = Trace(batch, n_accounts=n)
        params = ProtocolParams(k=4, eta=2.0, tau=50, seed=0)
        mapping_ref = MetisLikeAllocator(
            seed=5, compiled_kernels=False
        ).initialize(trace, params)
        mapping_jit = MetisLikeAllocator(
            seed=5, compiled_kernels=True
        ).initialize(trace, params)
        assert np.array_equal(mapping_ref.as_array(), mapping_jit.as_array())

    def test_partition_graph_rejects_bad_knob(self):
        graph, _ = random_graph(1)
        with pytest.raises(PartitionError):
            partition_graph(graph, 2, compiled_kernels="fast")
