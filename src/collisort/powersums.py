"""Exact power sums 1^k + 2^k + ... + m^k via Faulhaber polynomials.

Bernoulli numbers are kept as exact rationals so every power sum is an
exact integer, which keeps the log-series evaluations free of any inner
O(m) loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

MAX_ORDER = 64

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j with the B_1 = -1/2 convention."""
    if j < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    while len(_bernoulli_cache) <= j:
        i = len(_bernoulli_cache)
        acc = Fraction(0)
        for r in range(i):
            acc += math.comb(i + 1, r) * _bernoulli_cache[r]
        _bernoulli_cache.append(-acc / (i + 1))
    return _bernoulli_cache[j]


@lru_cache(maxsize=None)
def faulhaber_coefficients(k: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_(k+1) of S_k(m) = 1^k + ... + m^k = sum_i c_i m^i.

    Faulhaber form: c_(k+1-j) = C(k+1, j) B_j^+ / (k+1), where B^+ flips
    the sign of B_1.
    """
    b_plus = [-bernoulli(j) if j == 1 else bernoulli(j) for j in range(k + 1)]
    return (Fraction(0),) + tuple(math.comb(k + 1, j) * b_plus[j] / (k + 1) for j in range(k, -1, -1))


def power_sum(k: int, m: int) -> int:
    """Sum of i^k for i = 1..m, exactly, from the Faulhaber polynomial."""
    if k < 0 or m < 0:
        raise ValueError("power_sum requires k >= 0 and m >= 0")
    if k > MAX_ORDER:
        raise ValueError(f"power_sum supports k <= {MAX_ORDER}")
    acc = sum(c * m ** i for i, c in enumerate(faulhaber_coefficients(k)) if c)
    if acc.denominator != 1:
        raise AssertionError("power sum must be an integer")
    return acc.numerator
