"""Small validation helpers used across the library.

Every helper raises :class:`repro.errors.ConfigurationError` with a
descriptive message naming the offending parameter, which keeps the
call sites one-liners while still producing actionable errors.
"""

from __future__ import annotations

from numbers import Real
from typing import Any

from repro.errors import ConfigurationError


def _check_real(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(
            f"{name} must be a real number, got {type(value).__name__}: {value!r}"
        )
    return float(value)


def check_positive(name: str, value: Any) -> float:
    """Ensure ``value`` is a real number strictly greater than zero."""
    number = _check_real(name, value)
    if number <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return number


def check_non_negative(name: str, value: Any) -> float:
    """Ensure ``value`` is a real number greater than or equal to zero."""
    number = _check_real(name, value)
    if number < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return number


def check_in_range(
    name: str,
    value: Any,
    low: float,
    high: float,
    inclusive: bool = True,
) -> float:
    """Ensure ``low <= value <= high`` (or strict, if ``inclusive=False``)."""
    number = _check_real(name, value)
    if inclusive:
        ok = low <= number <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < number < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ConfigurationError(f"{name} must be in {bounds}, got {value!r}")
    return number


def check_probability(name: str, value: Any) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    return check_in_range(name, value, 0.0, 1.0)
