"""Independent high-precision oracles used across the test suite.

Everything here is exact rational arithmetic (series summed in Fraction)
or a literal definition (every column pair compared), deliberately sharing
no code path with the package's double-double evaluations and samplers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np


def atan_frac(x: Fraction, terms: int = 80) -> Fraction:
    total = Fraction(0)
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (2 * k + 1)
    return total


PI_FRAC = 16 * atan_frac(Fraction(1, 5)) - 4 * atan_frac(Fraction(1, 239))


def ln2_frac(terms: int = 60) -> Fraction:
    x = Fraction(1, 3)
    total = Fraction(0)
    for k in range(terms):
        total += x ** (2 * k + 1) / (2 * k + 1)
    return 2 * total


LN2_FRAC = ln2_frac()


def ln_frac(q: Fraction, terms: int = 90) -> Fraction:
    """ln of a positive rational via atanh series after binary reduction."""
    if q <= 0:
        raise ValueError("ln_frac needs a positive rational")
    e = 0
    while q >= 1:
        q /= 2
        e += 1
    while q < Fraction(1, 2):
        q *= 2
        e -= 1
    x = (q - 1) / (q + 1)
    total = Fraction(0)
    for k in range(terms):
        total += x ** (2 * k + 1) / (2 * k + 1)
    return 2 * total + e * LN2_FRAC


def exp_frac(r: Fraction, terms: int = 80) -> Fraction:
    """exp of a rational with |r| < 2, by the plain series."""
    if abs(r) >= 2:
        raise ValueError("exp_frac expects |r| < 2")
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, terms):
        term *= r / i
        total += term
    return total


def erfi_series_frac(x: Fraction, terms: int = 60) -> Fraction:
    """Taylor series of erfi(x) * sqrt(pi)/2 as an exact rational."""
    total = Fraction(0)
    for k in range(terms):
        num = x ** (2 * k + 1)
        den = Fraction(1)
        for i in range(1, k + 1):
            den *= i
        total += num / (den * (2 * k + 1))
    return total


def all_permutations(n: int):
    """All permutations of 1..n, as tuples in lexicographic order."""
    return permutations(range(1, n + 1))


def collision_survival_by_tuples(n: int, m: int) -> Fraction:
    """Share of the n^(m+1) tuples of values 0..n-1 whose m+1 entries are
    distinct, walking every tuple as a Python tuple."""
    distinct = sum(len(set(tup)) == m + 1 for tup in product(range(n), repeat=m + 1))
    return Fraction(distinct, n ** (m + 1))


def pair_match_counts_by_columns(draws):
    """Per row of a 2-D integer array: unordered column pairs holding equal
    values, by comparing every pair of columns (O(m^2) column passes)."""
    rows, cols = draws.shape
    matches = np.zeros(rows, dtype=np.int64)
    for a in range(cols):
        for b in range(a + 1, cols):
            matches += draws[:, a] == draws[:, b]
    return matches


def match_count_law_enumerated(supports) -> dict[int, float]:
    """Law of the pair-match count among independent uniforms, entry i on
    {0..supports[i-1] - 1}, by laying out every state of the product space
    with np.indices and comparing every column pair."""
    total = math.prod(supports)
    states = np.indices(supports).reshape(len(supports), total).T
    tally = np.bincount(pair_match_counts_by_columns(states))
    return {k: float(count) / total for k, count in enumerate(tally) if count}


# -- match indicators among independent uniforms on nested supports ----------
# supports[i - 1] is the support size of entry i (1-based), non-increasing


def family_pairs(supports) -> list[tuple[int, int]]:
    """Every index pair (i, j), i < j, of the family."""
    t = len(supports)
    return [(i, j) for i in range(1, t + 1) for j in range(i + 1, t + 1)]


def pair_mean(supports, i: int, j: int) -> float:
    """E of the {i, j} match indicator: 1/max(s_i, s_j)."""
    return 1.0 / max(supports[i - 1], supports[j - 1])


def triple_mean(supports, i: int, j: int, k: int) -> float:
    """E of the product of the {i, j} and {i, k} indicators, i, j, k distinct:
    1/(a b) for a >= b the two larger supports."""
    a, b, _ = sorted((supports[i - 1], supports[j - 1], supports[k - 1]), reverse=True)
    return 1.0 / (a * b)


def ordered_triple_sum(supports) -> float:
    """The ordered overlapping-triple sum by the literal O(t^3) loop; also
    checks each triple mean against its pair-mean cap."""
    t = len(supports)
    triple = 0.0
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            if j == i:
                continue
            for k in range(1, t + 1):
                if k == i or k == j:
                    continue
                e = triple_mean(supports, i, j, k)
                cap = min(pair_mean(supports, i, j), pair_mean(supports, i, k))
                if not 0.0 <= e <= cap * (1.0 + 1e-12):
                    raise ValueError(
                        f"triple mean {e} at ({i},{j},{k}) exceeds pair mean cap {cap}"
                    )
                triple += e
    return triple


def cross_means_direct(supports) -> float:
    """Sum of E(D) E(D') over ordered distinct overlapping pairs by the literal
    O(t^4) loop, each product added exactly (math.fsum)."""
    pairs = family_pairs(supports)
    return math.fsum(
        pair_mean(supports, i, j) * pair_mean(supports, l, r)
        for a, (i, j) in enumerate(pairs)
        for b, (l, r) in enumerate(pairs)
        if a != b and {i, j} & {l, r}
    )
