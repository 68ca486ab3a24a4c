"""Tests for fairness metrics."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.metrics.fairness import jain_index, max_min_ratio


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_value(self):
        assert jain_index([7.0]) == pytest.approx(1.0)

    def test_totally_unfair(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_known_case(self):
        # (1+2+3)^2 / (3 * (1+4+9)) = 36/42
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(36.0 / 42.0)
        # Squares that underflow must not hide the scale-free answer.
        assert jain_index([1e-300, 2e-300]) == pytest.approx(0.9)

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_empty_and_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
    @example([1e-300, 2e-300])
    @example([2.460849161654704e-158] * 2)
    def test_bounds(self, values):
        index = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    @given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=20),
           st.floats(0.01, 100.0))
    def test_scale_invariant(self, values, scale):
        scaled = [v * scale for v in values]
        assert jain_index(scaled) == pytest.approx(jain_index(values),
                                                   rel=1e-6)


class TestMaxMinRatio:
    def test_fair(self):
        assert max_min_ratio([3.0, 3.0]) == 1.0

    def test_ratio(self):
        assert max_min_ratio([2.0, 8.0]) == pytest.approx(4.0)

    def test_zero_minimum(self):
        assert math.isinf(max_min_ratio([0.0, 1.0]))
        assert max_min_ratio([0.0, 0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            max_min_ratio([])
