"""Property tests: the sort-based id-set helpers equal numpy's set ops."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.idsets import union_ids, unique_ids

ids = st.lists(st.integers(0, 60), max_size=40)


@settings(max_examples=200, deadline=None)
@given(values=ids)
def test_unique_ids_equals_np_unique(values):
    array = np.array(values, dtype=np.int64)
    got = unique_ids(array)
    expected = np.unique(array)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(array, np.array(values))  # input untouched


@settings(max_examples=300, deadline=None)
@given(
    first=ids,
    second=ids,
    below=st.integers(0, 70),
    presorted=st.booleans(),
)
def test_union_ids_equals_union1d_below_the_bound(first, second, below, presorted):
    """Empty inputs, ids in both arrays, repeats within one and ids at
    or beyond ``below`` (accounts the mapping does not cover yet)."""
    a = np.array(first, dtype=np.int64)
    b = np.array(second, dtype=np.int64)
    if presorted:  # as ``touched_accounts`` hands them over
        a, b = np.unique(a), np.unique(b)
    got = union_ids(a, b, below)
    expected = np.union1d(a, b)
    expected = expected[expected < below]
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_empty_inputs_keep_the_id_dtype():
    empty = np.zeros(0, dtype=np.int64)
    assert unique_ids(empty).dtype == np.int64
    assert union_ids(empty, empty, 10).dtype == np.int64
    assert len(union_ids(np.array([5, 9]), np.array([7]), 5)) == 0
