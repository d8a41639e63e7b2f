"""Unit tests for repro.util.validation."""

import pytest

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive_int(self):
        assert check_positive("x", 3) == 3.0

    def test_accepts_positive_float(self):
        assert check_positive("x", 0.5) == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x must be > 0"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -1)

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError, match="real number"):
            check_positive("x", True)

    def test_rejects_string(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", "3")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            check_non_negative("x", -0.1)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds_reject_edges(self):
        with pytest.raises(ConfigurationError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError, match=r"\[1.0, 2.0\]"):
            check_in_range("x", 3.0, 1.0, 2.0)

    def test_infinity_upper_bound(self):
        assert check_in_range("x", 1e100, 0.0, float("inf")) == 1e100


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 2])
    def test_rejects_invalid(self, value):
        with pytest.raises(ConfigurationError):
            check_probability("p", value)

