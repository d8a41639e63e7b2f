"""Unit tests for the timing and formatting helpers."""

import pytest

from repro.util.formatting import format_bytes, format_seconds, render_table
from repro.util.timing import Timer


class TestTimer:
    def test_records_laps(self):
        timer = Timer()
        with timer:
            pass
        with timer:
            pass
        assert timer.count == 2
        assert timer.total >= 0.0
        assert timer.mean >= 0.0

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.count == 0
        assert timer.mean == 0.0

    def test_laps_are_positive(self):
        timer = Timer()
        with timer:
            sum(range(1000))
        assert timer.laps[0] > 0


class TestFormatBytes:
    @pytest.mark.parametrize(
        "size,expected",
        [
            (0, "0 B"),
            (999, "999 B"),
            (1000, "1.00 KB"),
            (228.66, "229 B"),
            (1_440_000_000, "1.44 GB"),
            (721_140, "721.14 KB"),
        ],
    )
    def test_values(self, size, expected):
        assert format_bytes(size) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestFormatSeconds:
    def test_zero(self):
        assert format_seconds(0) == "0 s"

    def test_scientific_for_tiny(self):
        assert "e-05" in format_seconds(2.03e-5)

    def test_milliseconds(self):
        assert format_seconds(0.005) == "5.00 ms"

    def test_seconds(self):
        assert format_seconds(61.31) == "61.31 s"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            format_seconds(-0.1)


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]
        # All lines padded to the same width.
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_non_string_cells_are_coerced(self):
        text = render_table(["x"], [[3.14]])
        assert "3.14" in text
