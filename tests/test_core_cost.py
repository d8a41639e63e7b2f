"""Unit and property tests for the cost function and Potential (Eq. 3-4).

The central property is the paper's simplification theorem: the shard
minimising the cost ``u_i`` is exactly the shard maximising the
Potential ``P_i``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import (
    cost_vector,
    potential,
    potential_matrix,
    potential_vector,
    transaction_cost,
)
from repro.errors import ValidationError


class TestTransactionCost:
    def test_hand_computed_example(self):
        """k=2, psi=[3,1], omega=[2,4], eta=2.

        u_0 = (1*3 + 2*1)*2 + 2*(1*4) = 10 + 8 = 18
        u_1 = (1*1 + 2*3)*4 + 2*(3*2) = 28 + 12 = 40
        """
        psi = np.array([3.0, 1.0])
        omega = np.array([2.0, 4.0])
        assert transaction_cost(psi, omega, 0, eta=2.0) == 18.0
        assert transaction_cost(psi, omega, 1, eta=2.0) == 40.0

    def test_custom_fee_function(self):
        psi = np.array([1.0, 1.0])
        omega = np.array([4.0, 9.0])
        linear = transaction_cost(psi, omega, 0, eta=2.0)
        sqrt_fee = transaction_cost(
            psi, omega, 0, eta=2.0, fee_function=np.sqrt
        )
        assert sqrt_fee < linear  # sqrt dampens congestion pricing

    def test_fee_function_shape_checked(self):
        with pytest.raises(ValidationError):
            transaction_cost(
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
                0,
                eta=2.0,
                fee_function=lambda omega: omega[:1],
            )

    def test_rejects_bad_shard(self):
        with pytest.raises(ValidationError):
            transaction_cost(np.array([1.0]), np.array([1.0]), 5, eta=2.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            transaction_cost(np.array([1.0]), np.array([1.0, 2.0]), 0, eta=2.0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            transaction_cost(np.array([-1.0]), np.array([1.0]), 0, eta=2.0)

    def test_rejects_eta_below_one(self):
        with pytest.raises(ValidationError):
            transaction_cost(np.array([1.0]), np.array([1.0]), 0, eta=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("vector", ["psi", "omega"])
    def test_rejects_non_finite_entries(self, vector, bad):
        vectors = {"psi": np.array([1.0, 1.0]), "omega": np.array([1.0, 1.0])}
        vectors[vector][0] = bad
        with pytest.raises(ValidationError, match=f"{vector} entries must be finite"):
            potential_vector(vectors["psi"], vectors["omega"], eta=2.0)


class TestPotential:
    def test_scalar_matches_vector(self):
        psi = np.array([3.0, 1.0, 0.0])
        omega = np.array([2.0, 4.0, 1.0])
        vector = potential_vector(psi, omega, eta=2.0)
        for i in range(3):
            scalar = potential(psi[i], psi.sum(), omega[i], eta=2.0)
            assert scalar == pytest.approx(vector[i])

    def test_eq4_formula(self):
        # P_0 = [(2*2-1)*3 - 2*4] * 2 = (9 - 8) * 2 = 2
        assert potential(3.0, 4.0, 2.0, eta=2.0) == 2.0

    def test_rejects_psi_i_above_total(self):
        with pytest.raises(ValidationError):
            potential(5.0, 4.0, 1.0, eta=2.0)

    def test_matrix_matches_vector_rows(self):
        psi_matrix = np.array([[3.0, 1.0], [0.0, 2.0]])
        omega = np.array([2.0, 4.0])
        matrix = potential_matrix(psi_matrix, omega, eta=2.0)
        for row in range(2):
            assert np.allclose(
                matrix[row], potential_vector(psi_matrix[row], omega, 2.0)
            )

    def test_matrix_validation(self):
        with pytest.raises(ValidationError):
            potential_matrix(np.ones(3), np.ones(3), eta=2.0)
        with pytest.raises(ValidationError):
            potential_matrix(np.ones((2, 3)), np.ones(2), eta=2.0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (float("nan"), "finite"),
            (float("inf"), "finite"),
            (float("-inf"), "finite"),
            (-1.0, ">= 0"),
        ],
    )
    @pytest.mark.parametrize("name", ["psi", "omega"])
    def test_matrix_rejects_what_the_vector_rejects(self, bad, message, name):
        psi = np.ones((2, 3))
        omega = np.ones(3)
        (psi[1] if name == "psi" else omega)[2] = bad
        for call in (
            lambda: potential_matrix(psi, omega, eta=2.0),
            lambda: potential_vector(psi[1], omega, 2.0),
        ):
            with pytest.raises(ValidationError, match=f"{name} entries must be {message}"):
                call()

    def test_matrix_is_a_shard_major_transpose(self):
        matrix = potential_matrix(np.ones((4, 3)), np.ones(3), eta=2.0)
        assert matrix.shape == (4, 3)
        assert matrix.T.flags.c_contiguous


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 6),
    k=st.integers(1, 40),
    eta=st.sampled_from([1.0, 1.5, 2.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_rows_equal_vector_bit_for_bit(n, k, eta, seed):
    """Each row of the shard-major matrix is ``potential_vector`` of that
    row exactly, fractional entries included (the row total is the
    same pairwise sum)."""
    rng = np.random.default_rng(seed)
    psi = rng.random((n, k)) * rng.choice([1e-3, 1.0, 1e3])
    omega = rng.random(k) * 100
    matrix = potential_matrix(psi, omega, eta)
    for row in range(n):
        expected = potential_vector(psi[row], omega, eta)
        assert matrix[row].tobytes() == expected.tobytes()


@st.composite
def cost_scenario(draw):
    k = draw(st.integers(2, 8))
    psi = np.array(
        draw(
            st.lists(
                st.floats(0.0, 50.0, allow_nan=False),
                min_size=k,
                max_size=k,
            )
        )
    )
    omega = np.array(
        draw(
            st.lists(
                st.floats(0.01, 100.0, allow_nan=False),
                min_size=k,
                max_size=k,
            )
        )
    )
    eta = draw(st.floats(1.0, 10.0, allow_nan=False))
    return psi, omega, eta


@settings(max_examples=150, deadline=None)
@given(scenario=cost_scenario())
def test_simplification_theorem(scenario):
    """Property (paper, Section IV): argmin u == argmax P.

    More precisely: u_i - u_j < 0 iff P_i - P_j > 0, so the orderings
    induced by u (ascending) and P (descending) coincide.
    """
    psi, omega, eta = scenario
    u = cost_vector(psi, omega, eta)
    p = potential_vector(psi, omega, eta)
    scale = max(1.0, np.abs(u).max(), np.abs(p).max())
    tolerance = 1e-9 * scale
    k = len(psi)
    for i in range(k):
        for j in range(k):
            du = u[i] - u[j]
            dp = p[i] - p[j]
            if du < -tolerance:
                assert dp > -tolerance, (i, j, du, dp)
            if dp > tolerance:
                assert du < tolerance, (i, j, du, dp)


@settings(max_examples=100, deadline=None)
@given(scenario=cost_scenario())
def test_cost_difference_equals_potential_difference_sign(scenario):
    """Property: the derivation u_i - u_j = P_j - P_i (up to scale)."""
    psi, omega, eta = scenario
    u = cost_vector(psi, omega, eta)
    p = potential_vector(psi, omega, eta)
    # From the paper's algebra: u_i - u_j == P_j - P_i exactly.
    for i in range(len(psi)):
        for j in range(len(psi)):
            lhs = u[i] - u[j]
            rhs = p[j] - p[i]
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


def test_highly_connected_shard_dominates():
    """Paper's analysis: if psi_i/psi > eta/(2eta-1), shard i wins
    regardless of workload."""
    eta = 2.0
    psi = np.array([9.0, 0.5, 0.5])  # 90% of interactions with shard 0
    omega = np.array([1000.0, 1.0, 1.0])  # shard 0 heavily loaded
    p = potential_vector(psi, omega, eta)
    assert p.argmax() == 0


def test_weakly_connected_prefers_low_workload():
    """Paper's analysis: when all weights are negative, pick min omega."""
    eta = 2.0
    psi = np.array([1.0, 1.0, 1.0])  # evenly spread interactions
    omega = np.array([10.0, 1.0, 5.0])
    p = potential_vector(psi, omega, eta)
    assert p.argmax() == 1
