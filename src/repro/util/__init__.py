"""Shared utilities: validation helpers, RNG management, timers, tables."""

from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_probability,
)
from repro.util.rng import RngFactory, derive_seed
from repro.util.timing import Timer
from repro.util.formatting import format_bytes, format_seconds, render_table

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_probability",
    "RngFactory",
    "derive_seed",
    "Timer",
    "format_bytes",
    "format_seconds",
    "render_table",
]
