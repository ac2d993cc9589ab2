"""Faulhaber power sums against brute-force summation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collisort.powersums import bernoulli, power_sum


def test_bernoulli_small():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=200))
def test_power_sum_matches_bruteforce(k, m):
    assert power_sum(k, m) == sum(i ** k for i in range(1, m + 1))


def test_power_sum_high_order():
    assert power_sum(64, 10) == sum(i ** 64 for i in range(1, 11))


def test_power_sum_bounds():
    with pytest.raises(ValueError):
        power_sum(65, 3)
    with pytest.raises(ValueError):
        power_sum(-1, 3)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: bernoulli(-1), id="bernoulli-negative"),
])
def test_powersums_refuse_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
