"""Unit tests for the TxAllo re-implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.base import UpdateContext
from repro.allocation.graph import TransactionGraph
from repro.allocation.txallo import TxAlloAllocator, a_txallo, g_txallo
from repro.errors import AllocationError
from txallo_reference import a_txallo_reference, g_txallo_reference


def community_graph(n_communities=4, size=10, seed=0):
    """Dense communities with sparse global noise."""
    rng = np.random.default_rng(seed)
    n = n_communities * size
    graph = TransactionGraph(n)
    for c in range(n_communities):
        members = range(c * size, (c + 1) * size)
        for i in members:
            for j in members:
                if i < j:
                    graph.add_edge(i, j, 3.0)
    for _ in range(n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            graph.add_edge(int(u), int(v), 1.0)
    return graph


class TestGTxAllo:
    def test_deterministic(self):
        graph = community_graph()
        a = g_txallo(graph, k=4, eta=2.0)
        b = g_txallo(graph, k=4, eta=2.0)
        assert np.array_equal(a, b)

    def test_reduces_cut_vs_initial(self):
        graph = community_graph()
        initial = np.arange(graph.n_accounts) % 4
        result = g_txallo(graph, k=4, eta=2.0, initial=initial.copy())
        assert graph.cut_weight(result) < graph.cut_weight(initial)

    def test_groups_communities(self):
        graph = community_graph(n_communities=2, size=12)
        result = g_txallo(graph, k=2, eta=2.0)
        # Most of each community should share a shard.
        first = np.bincount(result[:12], minlength=2)
        second = np.bincount(result[12:], minlength=2)
        assert first.max() >= 9
        assert second.max() >= 9

    def test_respects_workload_cap(self):
        graph = community_graph()
        balance = 1.15
        result = g_txallo(graph, k=4, eta=2.0, balance_factor=balance)
        degrees = graph.vertex_weights()
        loads = np.bincount(result, weights=degrees, minlength=4)
        average = degrees.sum() / 4
        # Moves respect the cap; the initial assignment is balanced, so
        # the final loads stay within the cap plus one max-degree slack.
        assert loads.max() <= balance * average + degrees.max()

    def test_assignment_in_range(self):
        result = g_txallo(community_graph(), k=3, eta=5.0)
        assert result.min() >= 0 and result.max() < 3

    def test_rejects_bad_k(self):
        with pytest.raises(AllocationError):
            g_txallo(community_graph(), k=0, eta=2.0)

    def test_rejects_wrong_initial_length(self):
        with pytest.raises(AllocationError):
            g_txallo(
                community_graph(), k=2, eta=2.0, initial=np.zeros(3, dtype=int)
            )

    def test_empty_graph_keeps_initial(self):
        graph = TransactionGraph(5)
        initial = np.array([0, 1, 0, 1, 0])
        result = g_txallo(graph, k=2, eta=2.0, initial=initial)
        assert np.array_equal(result, initial)


class TestATxAllo:
    def test_only_active_accounts_move(self):
        graph = community_graph()
        assignment = np.arange(graph.n_accounts) % 4
        active = [0, 1, 2]
        result, moved = a_txallo(graph, assignment, active, k=4, eta=2.0)
        changed = np.flatnonzero(result != assignment)
        assert set(changed.tolist()) <= set(active)
        assert moved == len(changed)

    def test_no_active_accounts_is_noop(self):
        graph = community_graph()
        assignment = np.arange(graph.n_accounts) % 4
        result, moved = a_txallo(graph, assignment, [], k=4, eta=2.0)
        assert moved == 0
        assert np.array_equal(result, assignment)

    def test_improves_colocation_for_active(self):
        graph = community_graph(n_communities=2, size=12, seed=1)
        # Community 0 on shard 0, community 1 on shard 1, but account 0
        # misplaced on shard 1.
        assignment = np.array([0] * 12 + [1] * 12)
        assignment[0] = 1
        result, moved = a_txallo(graph, assignment, [0], k=2, eta=2.0)
        assert moved == 1
        assert result[0] == 0

    def test_isolated_active_account_ignored(self):
        graph = community_graph()
        assignment = np.arange(graph.n_accounts) % 4
        result, moved = a_txallo(
            graph, assignment, [graph.n_accounts - 1, 10_000], k=4, eta=2.0
        )
        assert moved >= 0  # out-of-graph ids must not crash


class TestTxAlloAllocator:
    def test_rejects_bad_mode(self):
        with pytest.raises(AllocationError):
            TxAlloAllocator(mode="bogus")

    def test_names(self):
        assert TxAlloAllocator(mode="adaptive").name == "txallo-a"
        assert TxAlloAllocator(mode="full").name == "txallo-g"

    @pytest.mark.parametrize("mode", ["adaptive", "full"])
    def test_initialize_and_update(self, tiny_trace, params, mode):
        allocator = TxAlloAllocator(mode=mode)
        mapping = allocator.initialize(tiny_trace, params)
        assert mapping.n_accounts == tiny_trace.n_accounts
        context = UpdateContext(
            epoch=0,
            params=params,
            committed=tiny_trace.batch[:400],
            mempool=tiny_trace.batch[400:700],
            capacity=100.0,
        )
        update = allocator.update(mapping, context)
        assert update.mapping.k == params.k
        assert update.input_bytes > 0
        assert update.migrations == update.proposed_migrations

    def test_adaptive_uses_less_input_than_full(self, tiny_trace, params):
        adaptive = TxAlloAllocator(mode="adaptive")
        full = TxAlloAllocator(mode="full")
        mapping_a = adaptive.initialize(tiny_trace, params)
        mapping_g = full.initialize(tiny_trace, params)
        context = UpdateContext(
            epoch=0,
            params=params,
            committed=tiny_trace.batch[:300],
            mempool=tiny_trace.batch[300:600],
            capacity=100.0,
        )
        update_a = adaptive.update(mapping_a, context)
        update_g = full.update(mapping_g, context)
        assert update_a.input_bytes < update_g.input_bytes


@st.composite
def txallo_cases(draw):
    """A graph with isolated accounts past its last edge, integral or
    fractional weights, plus k, eta, a balance factor (1.0 and 1.02
    keep the feasibility mask busy), an optional initial assignment and
    an active set with out-of-graph ids."""
    n_edged = draw(st.integers(2, 40))
    n_accounts = n_edged + draw(st.integers(0, 3))
    fractional = draw(st.booleans())
    weight = (
        st.sampled_from([0.1, 0.3, 0.7, 1.3, 2.5])
        if fractional
        else st.integers(1, 3).map(float)
    )
    ids = st.integers(0, n_edged - 1)
    graph = TransactionGraph(n_accounts)
    edges = draw(st.lists(st.tuples(ids, ids, weight), max_size=4 * n_edged))
    for u, v, w in edges:
        if u != v:
            graph.add_edge(u, v, w)
    k = draw(st.integers(1, 16))
    initial = draw(
        st.none()
        | st.lists(
            st.integers(0, k - 1), min_size=n_accounts, max_size=n_accounts
        )
    )
    return dict(
        graph=graph,
        k=k,
        eta=draw(st.sampled_from([0.75, 1.0, 2.0, 5.0])),
        balance_factor=draw(st.sampled_from([1.0, 1.02, 1.15, 2.0])),
        initial=None if initial is None else np.array(initial, dtype=np.int64),
        active=draw(st.lists(st.integers(-2, n_accounts + 2), max_size=30)),
    )


@settings(max_examples=200, deadline=None)
@given(case=txallo_cases())
def test_kernels_match_the_scan_and_commit_reference(case):
    """Both TxAllo variants equal the dense-scan, ``bincount``-commit
    reference byte for byte (integral and fractional weights alike)."""
    graph, k, eta, factor = (
        case["graph"], case["k"], case["eta"], case["balance_factor"]
    )
    got = g_txallo(graph, k, eta, factor, initial=case["initial"])
    want = g_txallo_reference(graph, k, eta, factor, initial=case["initial"])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    start = case["initial"]
    if start is None:
        start = np.arange(graph.n_accounts) % k
    got_a, moved = a_txallo(graph, start, case["active"], k, eta, factor)
    want_a, want_moved = a_txallo_reference(
        graph, start, case["active"], k, eta, factor
    )
    assert got_a.tobytes() == want_a.tobytes() and moved == want_moved


def test_rows_add_in_edge_order():
    """Account 0's neighbours on shard 2 weigh 0.3, 0.1, 0.1, 0.1 in edge
    order: summed that way they make exactly 0.6 and tie shard 1's 0.6,
    so the first best shard is 1; summed back to front they make
    0.6000000000000001 and shard 2 would win."""
    leaves = [(0.3, 2), (0.6, 0), (0.1, 2), (0.6, 1), (0.1, 2), (0.1, 2)]
    graph = TransactionGraph(1 + len(leaves))
    for v, (weight, _) in enumerate(leaves, start=1):
        graph.add_edge(0, v, weight)
    initial = np.array([0] + [shard for _, shard in leaves])

    result = g_txallo(graph, 3, 2.0, 3.0, max_rounds=1, initial=initial)
    assert result[0] == 1
    assert np.array_equal(
        result,
        g_txallo_reference(graph, 3, 2.0, 3.0, max_rounds=1, initial=initial),
    )
    adapted, moved = a_txallo(graph, initial, [0], 3, 2.0, 3.0)
    assert moved == 1 and adapted[0] == 1
