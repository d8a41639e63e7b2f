"""Timing helpers used by the efficiency experiments (Table IV)."""

from __future__ import annotations

import statistics
import time
from typing import List, Optional


class Timer:
    """Context-manager stopwatch accumulating wall-clock durations.

    A single ``Timer`` may be entered many times; it records every lap so
    the efficiency benchmarks can report means over repeated allocator
    updates, exactly as the paper averages running times over epochs.
    """

    def __init__(self) -> None:
        self.laps: List[float] = []
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is None:  # pragma: no cover - defensive
            return
        self.laps.append(time.perf_counter() - self._start)
        self._start = None

    @property
    def total(self) -> float:
        """Sum of all recorded laps, in seconds."""
        return sum(self.laps)

    @property
    def mean(self) -> float:
        """Mean lap duration in seconds (0.0 when nothing recorded)."""
        return statistics.fmean(self.laps) if self.laps else 0.0

    @property
    def count(self) -> int:
        """Number of completed laps."""
        return len(self.laps)

    def reset(self) -> None:
        """Discard all recorded laps."""
        self.laps.clear()
        self._start = None

