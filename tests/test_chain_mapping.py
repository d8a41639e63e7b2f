"""Unit and property tests for the account-shard mapping (Definition 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.mapping import ShardMapping
from repro.errors import MappingError, UnknownAccountError


class TestConstruction:
    def test_rejects_out_of_range_shards(self):
        with pytest.raises(MappingError):
            ShardMapping(np.array([0, 2]), k=2)

    def test_rejects_negative_shards(self):
        with pytest.raises(MappingError):
            ShardMapping(np.array([-1]), k=2)

    def test_rejects_bad_k(self):
        with pytest.raises(MappingError):
            ShardMapping(np.array([0]), k=0)

    def test_uniform_random_covers_all_shards_eventually(self):
        mapping = ShardMapping.uniform_random(
            1000, 4, np.random.default_rng(0)
        )
        assert set(np.unique(mapping.as_array())) == {0, 1, 2, 3}

    def test_constant(self):
        mapping = ShardMapping.constant(5, 3, shard=2)
        assert (mapping.as_array() == 2).all()

    def test_constant_rejects_bad_shard(self):
        with pytest.raises(MappingError):
            ShardMapping.constant(5, 3, shard=3)


class TestAccessors:
    def test_shard_of(self, small_mapping):
        assert small_mapping.shard_of(2) == 1

    def test_shard_of_unknown(self, small_mapping):
        with pytest.raises(UnknownAccountError):
            small_mapping.shard_of(99)

    def test_shards_of_vectorised(self, small_mapping):
        shards = small_mapping.shards_of(np.array([0, 2, 4]))
        assert list(shards) == [0, 1, 0]

    def test_shards_of_out_of_range(self, small_mapping):
        with pytest.raises(UnknownAccountError):
            small_mapping.shards_of(np.array([5]))
        with pytest.raises(UnknownAccountError) as error:
            small_mapping.shards_of(np.array([-1, 3]))
        assert error.value.account == -1

    def test_as_array_is_read_only(self, small_mapping):
        view = small_mapping.as_array()
        with pytest.raises(ValueError):
            view[0] = 1

    def test_shard_sizes(self, small_mapping):
        assert list(small_mapping.shard_sizes()) == [3, 2]

    def test_equality(self, small_mapping):
        assert small_mapping == small_mapping.copy()
        other = small_mapping.copy()
        other.assign(0, 1)
        assert small_mapping != other


class TestMutation:
    def test_assign(self, small_mapping):
        small_mapping.assign(0, 1)
        assert small_mapping.shard_of(0) == 1

    def test_assign_rejects_bad_shard(self, small_mapping):
        with pytest.raises(MappingError):
            small_mapping.assign(0, 9)

    def test_assign_many(self, small_mapping):
        small_mapping.assign_many(np.array([0, 1]), np.array([1, 1]))
        assert small_mapping.shard_of(0) == 1
        assert small_mapping.shard_of(1) == 1

    @pytest.mark.parametrize("ids", [[-1, 3], [3, 7, 1], [0, -2, 9]])
    def test_assign_many_names_the_unknown_id(self, small_mapping, ids):
        """The error names the first id outside the mapping, not the
        largest id of the batch."""
        before = small_mapping.copy()
        first_bad = next(i for i in ids if not 0 <= i < len(small_mapping))
        with pytest.raises(UnknownAccountError) as error:
            small_mapping.assign_many(np.array(ids), np.zeros(len(ids)))
        assert error.value.account == first_bad
        assert small_mapping == before

    def test_assign_many_shape_mismatch(self, small_mapping):
        with pytest.raises(MappingError):
            small_mapping.assign_many(np.array([0]), np.array([1, 1]))

    def test_assign_many_empty_is_noop(self, small_mapping):
        before = small_mapping.copy()
        small_mapping.assign_many(np.array([], dtype=int), np.array([], dtype=int))
        assert small_mapping == before

    def test_copy_isolation(self, small_mapping):
        clone = small_mapping.copy()
        clone.assign(0, 1)
        assert small_mapping.shard_of(0) == 0


class TestDiff:
    def test_diff_lists_changed_accounts(self, small_mapping):
        other = small_mapping.copy()
        other.assign(1, 1)
        other.assign(4, 1)
        assert list(small_mapping.diff(other)) == [1, 4]

    def test_diff_shape_mismatch(self, small_mapping):
        other = ShardMapping(np.array([0]), k=2)
        with pytest.raises(MappingError):
            small_mapping.diff(other)

@settings(max_examples=80, deadline=None)
@given(
    assignment=st.lists(st.integers(0, 7), min_size=1, max_size=200),
)
def test_partition_satisfies_definition_1(assignment):
    """Property: partition() yields disjoint, complete account sets."""
    mapping = ShardMapping(np.array(assignment), k=8)
    parts = mapping.partition()
    assert len(parts) == 8
    combined = np.concatenate(parts)
    # Completeness: every account appears.
    assert sorted(combined.tolist()) == list(range(len(assignment)))
    # Uniqueness: no account appears twice.
    assert len(np.unique(combined)) == len(assignment)
    # Consistency with shard_of.
    for shard, part in enumerate(parts):
        for account in part:
            assert mapping.shard_of(int(account)) == shard


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 100),
    k=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_shard_sizes_sum_to_n(n, k, seed):
    """Property: shard sizes always partition the account count."""
    mapping = ShardMapping.uniform_random(n, k, np.random.default_rng(seed))
    sizes = mapping.shard_sizes()
    assert sizes.sum() == n
    assert len(sizes) == k
