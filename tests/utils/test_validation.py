"""Tests for repro.utils.validation."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    check_fraction,
    check_int_at_least,
    check_non_negative,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive(bad, "x")

    def test_message_names_parameter(self):
        with pytest.raises(ConfigurationError, match="myparam"):
            check_positive(-1, "myparam")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    @pytest.mark.parametrize("bad", [-0.001, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_non_negative(bad, "x")


class TestCheckFraction:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_fraction(ok, "x") == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_fraction(bad, "x")


class TestCheckIntAtLeast:
    def test_accepts_minimum(self):
        assert check_int_at_least(3, 3, "n") == 3

    def test_rejects_below(self):
        with pytest.raises(ConfigurationError):
            check_int_at_least(2, 3, "n")

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigurationError):
            check_int_at_least(2.5, 1, "n")

    def test_accepts_integral_float(self):
        assert check_int_at_least(4.0, 1, "n") == 4
