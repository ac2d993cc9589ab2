"""Stein-Chen total-variation bounds for match counts among nested uniforms.

A family holds independent entries U_1, ..., U_t, entry i uniform on
{0..s_i - 1}, with support sizes s_1 >= s_2 >= ... >= s_t >= 1, so each
support lies inside every earlier one.  Birthday draws have every s_i = n;
inversion-table entries have s_i = n - i + 1.  The count W of matching
pairs {i, j} (U_i = U_j) sums dissociated indicators: collections living
on disjoint index sets are independent.  By Arratia, Goldstein and Gordon
(1989) the total-variation distance between W and the Poisson law with
the same mean is bounded by

    (1 - e^-mu)/mu * [ sum (E D)^2
                       + sum over overlapping pairs (E D E D' + E(D D'))]

which is computable from the support sizes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import PoissonLaw, poisson_pmf_vector
from .sorters import ENUM_BIRTHDAY_LIMIT, ResourceBoundError

ENUM_BIRTHDAY_N = ENUM_BIRTHDAY_LIMIT  # both walk the space {0..n-1}^(m+1)
ENUM_INVERSION_N = 8


@dataclass(frozen=True)
class DissociatedFamily:
    """Pair-match indicators among independent uniforms on nested supports.

    Entry i (1-based) is uniform on {0..supports[i-1] - 1}; the supports
    are positive and non-increasing.  Summing over the common support, a
    pair of entries matches with probability 1/(larger support) and a
    triple with probability 1/(product of the two larger supports).
    """

    supports: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        s = self.supports
        if any(size < 1 for size in s) or any(a < b for a, b in zip(s, s[1:])):
            raise ValueError(f"supports must be positive and non-increasing, got {s}")

    @property
    def base_set_size(self) -> int:
        return len(self.supports)

    def _support(self, i: int) -> int:
        if not 1 <= i <= len(self.supports):
            raise ValueError(f"index {i} outside 1..{len(self.supports)}")
        return self.supports[i - 1]

    def pairs(self) -> list[tuple[int, int]]:
        t = self.base_set_size
        return [(i, j) for i in range(1, t + 1) for j in range(i + 1, t + 1)]

    def pair_mean(self, i: int, j: int) -> float:
        """E of the {i,j} indicator."""
        return 1.0 / max(self._support(i), self._support(j))

    def triple_mean(self, i: int, j: int, k: int) -> float:
        """E of the product of the {i,j} and {i,k} indicators, i, j, k distinct."""
        a, b, _ = sorted((self._support(i), self._support(j), self._support(k)), reverse=True)
        return 1.0 / (a * b)

    def triple_sum(self) -> float:
        """The ordered overlapping-triple sum in O(|T|).

        For a < b < c the triple match has probability 1/(s_a s_b); the
        ordered sum counts each unordered triple six times, and prefix sums
        over 1/s_t give the sum over a < b for each c.
        """
        total = 0.0
        running = 0.0  # sum of 1/s_t for t < c
        running_sq = 0.0  # sum of 1/s_t^2 for t < c
        for size in self.supports:
            total += (running * running - running_sq) / 2.0
            inv = 1.0 / size
            running += inv
            running_sq += inv * inv
        return 6.0 * total


@dataclass(frozen=True)
class SteinChenReport:
    mu: float
    tv_bound: float
    hypothesis_sq: float  # |T| * sum of squared pair means
    hypothesis_triple: float  # sum over ordered overlapping triples
    squared_means_sum: float
    cross_means_sum: float


def birthday_family(n: int, m: int) -> DissociatedFamily:
    """Match indicators among the first m+1 uniform draws on n days."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return DissociatedFamily((n,) * (m + 1), f"birthday(n={n}, m={m})")


def inversion_family(n: int, m: int) -> DissociatedFamily:
    """Match indicators among the first m+1 inversion-table entries;
    entry i is uniform on {0..n-i}."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if m + 1 > n:
        raise ValueError(f"inversion family needs m+1 <= n, got m={m}, n={n}")
    return DissociatedFamily(tuple(range(n, n - m - 1, -1)), f"inversion(n={n}, m={m})")


# each match kind: its family and the largest n that `match_count_law` enumerates
MATCH_FAMILIES = {"birthday": (birthday_family, ENUM_BIRTHDAY_N),
                  "inversion": (inversion_family, ENUM_INVERSION_N)}


def _match_kind(kind: str) -> tuple:
    if kind not in MATCH_FAMILIES:
        raise ValueError(f"unknown kind {kind!r}")
    return MATCH_FAMILIES[kind]


def match_family(kind: str, n: int, m: int) -> DissociatedFamily:
    """The family of a match kind: "birthday" draws or "inversion" table entries."""
    return _match_kind(kind)[0](n, m)


def stein_chen_bound(family: DissociatedFamily) -> SteinChenReport:
    """Assemble the computable total-variation bound for the family.

    Supports never increase, so for i < j the pair {i, j} has mean 1/s_i:
    entry i's row sum is sum_(j<i) 1/s_j + (t-1-i)/s_i, and one pass over the
    supports gives mu, sum (E D)^2 and the overlapping cross-mean sum
    sum_i (row sum_i)^2 - 2 sum (E D)^2.  The direct double loop over
    overlapping pairs is kept as an oracle (`cross_means_direct`).
    """
    t = family.base_set_size
    if t < 2:
        return SteinChenReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mu = sq = rows_sq = running = 0.0  # running: sum of 1/s_j for j < i
    for i, size in enumerate(family.supports):
        inv = 1.0 / size
        later = (t - 1 - i) * inv  # the pairs {i, j}, j > i, each of mean 1/s_i
        mu += later
        sq += later * inv
        row = running + later
        rows_sq += row * row
        running += inv
    cross = rows_sq - 2.0 * sq
    triple = family.triple_sum()
    factor = -math.expm1(-mu) / mu
    tv_bound = factor * (sq + cross + triple)
    return SteinChenReport(mu, tv_bound, t * sq, triple, sq, cross)


def ordered_triple_sum(family: DissociatedFamily) -> float:
    """The ordered overlapping-triple sum by the literal O(|T|^3) loop.

    Serves as the oracle for ``triple_sum``; also validates each triple
    mean against its pair-mean cap.
    """
    t = family.base_set_size
    means = {(i, j): family.pair_mean(i, j) for i, j in family.pairs()}
    triple = 0.0
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            if j == i:
                continue
            for k in range(1, t + 1):
                if k == i or k == j:
                    continue
                e = family.triple_mean(i, j, k)
                cap = min(
                    means[(min(i, j), max(i, j))], means[(min(i, k), max(i, k))]
                )
                if not 0.0 <= e <= cap * (1.0 + 1e-12):
                    raise ValueError(
                        f"triple mean {e} at ({i},{j},{k}) exceeds pair mean cap {cap}"
                    )
                triple += e
    return triple


def cross_means_direct(family: DissociatedFamily) -> float:
    """Oracle: sum of E(D) E(D') over distinct overlapping family pairs."""
    pairs = family.pairs()
    total = 0.0
    for a, (i, j) in enumerate(pairs):
        e1 = family.pair_mean(i, j)
        for b, (l, r) in enumerate(pairs):
            if a == b:
                continue
            if len({i, j} & {l, r}) == 0:
                continue
            total += e1 * family.pair_mean(l, r)
    return total


def poisson_limit_functionals(family: DissociatedFamily) -> tuple[float, float]:
    """The two vanishing-hypothesis functionals of the Poisson limit.

    Returns (|T| * sum (E D)^2, ordered overlapping-triple sum).  Also
    checks, rather than trusts, the Cauchy-Schwarz consequence
    sum (E D)^2 >= mu^2 / |S|.
    """
    report = stein_chen_bound(family)
    t = family.base_set_size
    if t >= 2:
        lower = report.mu ** 2 / (t * (t - 1) // 2)
        if report.squared_means_sum < lower * (1.0 - 1e-12):
            raise AssertionError(
                "Cauchy-Schwarz violated: sum of squared means "
                f"{report.squared_means_sum} < mu^2/|S| = {lower}"
            )
    return report.hypothesis_sq, report.hypothesis_triple


# ---------------------------------------------------------------------------
# exact total variation for enumerable instances
# ---------------------------------------------------------------------------


def _mixed_radix_states(radices: tuple[int, ...]) -> np.ndarray:
    """All tuples of the product space, one row per state."""
    total = 1
    for r in radices:
        total *= r
    if total > 2_000_000:
        raise ResourceBoundError(f"product space of {total} states too large")
    out = np.empty((total, len(radices)), dtype=np.int32)
    idx = np.arange(total)
    for col, r in enumerate(radices):
        out[:, col] = idx % r
        idx //= r
    return out


def match_count_law(kind: str, n: int, m: int) -> dict[int, float]:
    """Exact law of the pairwise match count by full enumeration."""
    family, limit = _match_kind(kind)
    if not 1 <= n <= limit:
        raise ResourceBoundError(f"{kind} enumeration bounded at n <= {limit}")
    if m > n:
        raise ValueError("need m <= n")
    states = _mixed_radix_states(family(n, m).supports)
    total = states.shape[0]
    counts = np.zeros(total, dtype=np.int64)
    cols = states.shape[1]
    for a in range(cols):
        for b in range(a + 1, cols):
            counts += states[:, a] == states[:, b]
    tally = np.bincount(counts)
    return {k: tally[k] / total for k in range(len(tally)) if tally[k]}


def tv_exact_enumerated(kind: str, n: int, m: int) -> float:
    """Exact TV distance between the match-count law and Poisson(mu)."""
    mu = stein_chen_bound(match_family(kind, n, m)).mu
    if m == 0:
        return 0.0
    law = match_count_law(kind, n, m)
    return tv_distance_to_poisson(law, mu)


def tv_distance_to_poisson(pmf: dict[int, float], mu: float) -> float:
    """0.5 * sum_k |pmf_k - Poisson(mu)_k| including the Poisson tail."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    kmax = max(pmf) if pmf else 0
    qs = poisson_pmf_vector(PoissonLaw(mu), kmax)
    acc = sum(abs(pmf.get(k, 0.0) - qs[k]) for k in range(kmax + 1))
    tail = max(0.0, 1.0 - sum(qs))
    return 0.5 * (acc + tail)
