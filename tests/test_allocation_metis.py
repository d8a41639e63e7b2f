"""Unit and property tests for the Metis-like multilevel partitioner."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.allocation.graph import TransactionGraph
from repro.allocation.metis_like import MetisLikeAllocator, partition_graph
from repro.allocation.metis_like.coarsen import (
    contract_csr,
    heavy_edge_matching_csr,
)
from repro.allocation.metis_like.csr import csr_from_adjacency
from repro.allocation.metis_like.initial import greedy_initial_partition
from repro.allocation.metis_like.refine import (
    _LevelState,
    _rebalance_passes,
    _refine_passes,
    cut_weight,
    polish_level,
)
from repro.chain.params import ProtocolParams
from repro.errors import PartitionError


def heavy_edge_matching(adjacency, vertex_weights, rng, max_vertex_weight):
    """Dict-adjacency front end to :func:`heavy_edge_matching_csr`."""
    return heavy_edge_matching_csr(
        csr_from_adjacency(adjacency), vertex_weights, rng, max_vertex_weight
    )


def refine_partition(adjacency, vertex_weights, assignment, k, max_part_weight):
    """Dict-adjacency front end to the refine passes alone."""
    csr = csr_from_adjacency(adjacency)
    return _refine_passes(
        csr, vertex_weights, assignment, k, max_part_weight, _LevelState(csr, k)
    )


def rebalance(adjacency, vertex_weights, assignment, k, max_part_weight):
    """Dict-adjacency front end to the rebalance passes alone."""
    csr = csr_from_adjacency(adjacency)
    return _rebalance_passes(
        csr, vertex_weights, assignment, k, max_part_weight, _LevelState(csr, k)
    )


def contract(adjacency, vertex_weights, match):
    """Dict-adjacency front end to :func:`contract_csr`; the coarse graph
    comes back as list-of-dicts adjacency."""
    coarse, coarse_weights, fine_to_coarse = contract_csr(
        csr_from_adjacency(adjacency), vertex_weights, match
    )
    coarse_adjacency = [
        dict(
            zip(
                coarse.indices[coarse.indptr[u] : coarse.indptr[u + 1]].tolist(),
                coarse.weights[coarse.indptr[u] : coarse.indptr[u + 1]].tolist(),
            )
        )
        for u in range(coarse.n)
    ]
    return coarse_adjacency, coarse_weights, fine_to_coarse


def two_cliques(size=8, bridge_weight=0.5):
    """Two dense cliques joined by one weak bridge edge."""
    graph = TransactionGraph(2 * size)
    for offset in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                graph.add_edge(offset + i, offset + j, 4.0)
    graph.add_edge(0, size, bridge_weight)
    return graph


def random_graph(seed, n_low=10, n_high=120):
    """A random multigraph with integer edge weights, self-loops dropped."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_low, n_high))
    m = int(rng.integers(n, 5 * n))
    graph = TransactionGraph(n)
    for u, v, w in zip(
        rng.integers(0, n, size=m).tolist(),
        rng.integers(0, n, size=m).tolist(),
        rng.integers(1, 8, size=m).tolist(),
    ):
        if u != v:
            graph.add_edge(u, v, float(w))
    return graph, n


class TestCoarsening:
    def test_matching_is_symmetric(self):
        graph = two_cliques(4)
        adjacency = [graph.neighbors(v) for v in range(graph.n_accounts)]
        weights = graph.vertex_weights()
        match = heavy_edge_matching(
            adjacency, weights, np.random.default_rng(0), max_vertex_weight=1e9
        )
        for u, v in enumerate(match):
            assert match[v] == u  # symmetric or self-matched

    def test_contract_preserves_total_weight(self):
        graph = two_cliques(4)
        adjacency = [graph.neighbors(v) for v in range(graph.n_accounts)]
        weights = graph.vertex_weights()
        match = heavy_edge_matching(
            adjacency, weights, np.random.default_rng(0), max_vertex_weight=1e9
        )
        coarse_adj, coarse_weights, fine_to_coarse = contract(
            adjacency, weights, match
        )
        assert coarse_weights.sum() == pytest.approx(weights.sum())
        assert len(coarse_weights) < len(weights)
        assert (fine_to_coarse >= 0).all()

    def test_contract_halves_duplicate_edges(self):
        graph = TransactionGraph(4)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(2, 3, 1.0)
        graph.add_edge(0, 2, 5.0)
        adjacency = [graph.neighbors(v) for v in range(4)]
        weights = graph.vertex_weights()
        # Force-match (0,1) and (2,3).
        match = np.array([1, 0, 3, 2])
        coarse_adj, _, f2c = contract(adjacency, weights, match)
        cu, cv = f2c[0], f2c[2]
        assert coarse_adj[cu][cv] == pytest.approx(5.0)


class TestInitialPartition:
    def test_covers_all_parts_when_feasible(self):
        graph = two_cliques(6)
        adjacency = [graph.neighbors(v) for v in range(graph.n_accounts)]
        weights = np.maximum(graph.vertex_weights(), 1.0)
        assignment = greedy_initial_partition(
            adjacency, weights, 2, weights.sum() / 2 * 1.2
        )
        assert set(np.unique(assignment)) == {0, 1}

    def test_rejects_bad_k(self):
        with pytest.raises(PartitionError):
            greedy_initial_partition([], np.zeros(0), 0, 1.0)


class TestRefinement:
    def test_refine_never_worsens_cut(self):
        graph = two_cliques(6)
        adjacency = [graph.neighbors(v) for v in range(graph.n_accounts)]
        weights = np.maximum(graph.vertex_weights(), 1.0)
        rng = np.random.default_rng(1)
        assignment = rng.integers(0, 2, size=graph.n_accounts)
        before = cut_weight(adjacency, assignment)
        refined = refine_partition(
            adjacency, weights, assignment.copy(), 2, weights.sum() / 2 * 1.3
        )
        after = cut_weight(adjacency, refined)
        assert after <= before


class TestCommitTieBreaks:
    """The tie-break contracts of the sequential commit loops."""

    def test_refine_first_strictly_better_target_wins(self):
        # Vertex 0 (part 0) is equally attracted to parts 1 and 2: the
        # gains tie, and an equal later gain must not displace the
        # first target. Vertex 3 keeps part 0 from emptying.
        adjacency = [{1: 2.0, 2: 2.0}, {0: 2.0}, {0: 2.0}, {}]
        assignment = np.array([0, 1, 2, 0], dtype=np.int64)
        refined = refine_partition(adjacency, np.ones(4), assignment, 3, 10.0)
        assert refined.tolist() == [1, 1, 2, 0]

    def test_refine_zero_gain_never_moves(self):
        # Path 1-0-2-3 split {0, 1} | {2, 3}: both boundary vertices
        # have equal internal and external connection.
        adjacency = [{1: 1.0, 2: 1.0}, {0: 1.0}, {0: 1.0, 3: 1.0}, {2: 1.0}]
        assignment = np.array([0, 0, 1, 1], dtype=np.int64)
        refined = refine_partition(adjacency, np.ones(4), assignment, 2, 10.0)
        assert refined.tolist() == [0, 0, 1, 1]

    def test_rebalance_load_tie_resolves_to_lowest_part(self):
        # Part 0 carries 5 of 7 unit vertices; parts 1 and 2 are
        # equally light, so the first move must go to part 1.
        assignment = np.array([0, 0, 0, 0, 0, 1, 2], dtype=np.int64)
        balanced = rebalance([{}] * 7, np.ones(7), assignment, 3, 4.0)
        assert balanced.tolist() == [1, 0, 0, 0, 0, 1, 2]

    def test_rebalance_stops_when_part_is_lightest(self):
        # Both parts exceed the cap, but part 0 (load 2) is already the
        # lightest: the drain stops without counting a move, so the
        # level keeps its live connection matrix.
        csr = csr_from_adjacency([{}] * 3)
        state = _LevelState(csr, 2)
        state.connection_flat = live = np.zeros(6)
        assignment = np.array([0, 0, 1], dtype=np.int64)
        weights = np.array([1.0, 1.0, 5.0])
        balanced = _rebalance_passes(csr, weights, assignment, 2, 1.5, state)
        assert balanced.tolist() == [0, 0, 1]
        assert state.connection_flat is live


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_refine_dirty_rows_match_incremental_scatter(seed, k):
    """Property: halving every edge weight makes the weights fractional,
    which switches refinement from the incremental connection scatter to
    the dirty-row rebuild. Halving is exact in binary floating point,
    so both protocols must commit the same moves."""
    graph, n = random_graph(seed)
    adjacency = [graph.neighbors(v) for v in range(n)]
    halved = [{v: w / 2 for v, w in row.items()} for row in adjacency]
    assume(not _LevelState(csr_from_adjacency(halved), k).integral)
    weights = np.maximum(graph.vertex_weights(), 1.0)
    start = np.random.default_rng(seed).integers(0, k, size=n)
    cap = 1.2 * float(weights.sum()) / k
    integral = refine_partition(adjacency, weights, start.copy(), k, cap)
    fractional = refine_partition(halved, weights, start.copy(), k, cap)
    assert np.array_equal(integral, fractional)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_polish_level_dirty_rows_match_incremental_scatter(seed, k):
    """Property: the same halving argument over a whole level's polish,
    where integral weights carry the live connection matrix from phase
    to phase and fractional ones rebuild it."""
    graph, n = random_graph(seed)
    adjacency = [graph.neighbors(v) for v in range(n)]
    halved = [{v: w / 2 for v, w in row.items()} for row in adjacency]
    assume(not _LevelState(csr_from_adjacency(halved), k).integral)
    weights = np.maximum(graph.vertex_weights(), 1.0)
    start = np.random.default_rng(seed).integers(0, k, size=n)
    strict = 1.1 * float(weights.sum()) / k
    relaxed = strict + float(weights.max())
    integral = polish_level(adjacency, weights, start.copy(), k, relaxed, strict)
    fractional = polish_level(halved, weights, start.copy(), k, relaxed, strict)
    assert np.array_equal(integral, fractional)


class TestPartitionGraph:
    def test_separates_two_cliques(self):
        result = partition_graph(two_cliques(8), k=2, seed=3)
        # The weak bridge should be the only cut edge.
        assert result.cut <= 1.0
        first = result.assignment[: 8]
        second = result.assignment[8:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_balance_constraint_respected(self):
        graph = two_cliques(10)
        result = partition_graph(graph, k=2, balance_factor=1.15, seed=0)
        weights = np.maximum(
            np.array([graph.degree(int(v)) for v in result.vertex_ids]), 1.0
        )
        loads = np.bincount(result.assignment, weights=weights, minlength=2)
        assert loads.max() <= 1.30 * weights.sum() / 2  # small slack

    def test_empty_graph(self):
        result = partition_graph(TransactionGraph(), k=4)
        assert len(result.assignment) == 0

    def test_k_one_trivial(self):
        result = partition_graph(two_cliques(4), k=1)
        assert (result.assignment == 0).all()
        assert result.cut == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(PartitionError):
            partition_graph(two_cliques(3), k=0)
        with pytest.raises(PartitionError):
            partition_graph(two_cliques(3), k=2, balance_factor=0.9)

    def test_multilevel_path_taken_for_larger_graphs(self):
        rng = np.random.default_rng(0)
        graph = TransactionGraph(600)
        for _ in range(2500):
            u, v = rng.integers(0, 600, size=2)
            if u != v:
                graph.add_edge(int(u), int(v), 1.0)
        result = partition_graph(graph, k=4, coarsen_target=80, seed=1)
        assert result.levels > 1
        assert set(np.unique(result.assignment)) <= {0, 1, 2, 3}


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(4, 40),
    k=st.integers(1, 4),
    seed=st.integers(0, 100),
)
def test_partition_is_always_valid(n, k, seed):
    """Property: every vertex gets exactly one part in range(k)."""
    rng = np.random.default_rng(seed)
    graph = TransactionGraph(n)
    for _ in range(3 * n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            graph.add_edge(int(u), int(v), float(rng.integers(1, 5)))
    result = partition_graph(graph, k=k, seed=seed)
    assert len(result.assignment) == len(result.vertex_ids)
    if len(result.assignment):
        assert result.assignment.min() >= 0
        assert result.assignment.max() < k
    assert result.cut >= 0


class TestMetisLikeAllocator:
    def test_initialize_and_update(self, tiny_trace, params):
        from repro.allocation.base import UpdateContext

        allocator = MetisLikeAllocator(seed=1)
        mapping = allocator.initialize(tiny_trace, params)
        assert mapping.n_accounts == tiny_trace.n_accounts
        context = UpdateContext(
            epoch=0,
            params=params,
            committed=tiny_trace.batch[:500],
            mempool=tiny_trace.batch[500:800],
            capacity=200.0,
        )
        update = allocator.update(mapping, context)
        assert update.execution_time > 0
        assert update.input_bytes > 0
        assert update.mapping.n_accounts == mapping.n_accounts

    def test_beats_random_on_cut(self, tiny_trace, params):
        from repro.allocation.graph import TransactionGraph
        from repro.chain.mapping import ShardMapping

        allocator = MetisLikeAllocator(seed=1)
        mapping = allocator.initialize(tiny_trace, params)
        graph = TransactionGraph.from_batch(tiny_trace.batch)
        random_mapping = ShardMapping.uniform_random(
            tiny_trace.n_accounts, params.k, np.random.default_rng(0)
        )
        metis_cut = graph.cut_weight(mapping.as_array())
        random_cut = graph.cut_weight(random_mapping.as_array())
        assert metis_cut < random_cut
