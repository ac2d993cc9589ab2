"""Stein-Chen total-variation bounds for dissociated pair-indicator families.

A family assigns to each unordered index pair {i, j} of a base set an
indicator variable; dissociation means collections living on disjoint
index supports are independent.  The total-variation distance between the
sum of the indicators and the Poisson law with the same mean is bounded by

    (1 - e^-mu)/mu * [ sum (E D)^2
                       + sum over overlapping pairs (E D E D' + E(D D'))]

which is computable from pair means and overlapping-triple means alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import PoissonLaw, poisson_pmf_vector
from .sorters import ResourceBoundError

ENUM_BIRTHDAY_N = 6
ENUM_INVERSION_N = 8


@dataclass(frozen=True)
class DissociatedFamily:
    """Pair-indexed indicator family described by its first two joint moments.

    ``pair_mean(i, j)`` is E of the {i,j} indicator; ``triple_mean(i, j, k)``
    is E of the product of the {i,j} and {i,k} indicators for distinct
    i, j, k.  ``index_predicate`` selects which pairs belong to the family.
    ``triple_sum_fn``, when provided, returns the full ordered triple sum in
    closed form; without it the bound falls back to the O(|T|^3) loop.
    """

    base_set_size: int
    pair_mean: Callable[[int, int], float]
    triple_mean: Callable[[int, int, int], float]
    index_predicate: Callable[[int, int], bool] = field(default=lambda i, j: True)
    triple_sum_fn: Callable[[], float] | None = None
    label: str = ""

    def pairs(self) -> list[tuple[int, int]]:
        t = self.base_set_size
        return [
            (i, j)
            for i in range(1, t + 1)
            for j in range(i + 1, t + 1)
            if self.index_predicate(i, j)
        ]


@dataclass(frozen=True)
class SteinChenReport:
    mu: float
    tv_bound: float
    hypothesis_sq: float  # |T| * sum of squared pair means
    hypothesis_triple: float  # sum over ordered overlapping triples
    squared_means_sum: float
    cross_means_sum: float


def birthday_family(n: int, m: int) -> DissociatedFamily:
    """Match indicators among the first m+1 uniform draws on n days.

    Any pair matches with probability 1/n; two pairs sharing a person
    match jointly with probability 1/n^2.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    inv_n = 1.0 / n
    inv_n2 = inv_n * inv_n
    return DissociatedFamily(
        base_set_size=m + 1,
        pair_mean=lambda i, j: inv_n,
        triple_mean=lambda i, j, k: inv_n2,
        triple_sum_fn=lambda: (m + 1) * m * (m - 1) * inv_n2,
        label=f"birthday(n={n}, m={m})",
    )


def inversion_family(n: int, m: int) -> DissociatedFamily:
    """Match indicators among the first m+1 inversion-table entries.

    Entry i is uniform on {0..n-i} (support size n-i+1).  Means follow
    by summing over the common support; the per-value summands are
    constant, so each sum collapses to (common support size) times the
    product of reciprocal support sizes.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if m + 1 > n:
        raise ValueError(f"inversion family needs m+1 <= n, got m={m}, n={n}")

    def support(i: int) -> int:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside 1..{n}")
        return n - i + 1

    def pair_mean(i: int, j: int) -> float:
        common = min(support(i), support(j))
        return common / (support(i) * support(j))

    def triple_mean(i: int, j: int, k: int) -> float:
        common = min(support(i), support(j), support(k))
        return common / (support(i) * support(j) * support(k))

    def triple_sum() -> float:
        # joint triple-match probability for sorted a < b < c reduces by
        # value summation to 1/(s_a s_b); the ordered sum counts each
        # unordered triple six times; prefix sums make it O(m)
        total = 0.0
        running = 0.0  # sum of 1/s_t for t < c
        running_sq = 0.0  # sum of 1/s_t^2 for t < c
        for c in range(1, m + 2):
            total += (running * running - running_sq) / 2.0
            inv = 1.0 / support(c)
            running += inv
            running_sq += inv * inv
        return 6.0 * total

    return DissociatedFamily(
        base_set_size=m + 1,
        pair_mean=pair_mean,
        triple_mean=triple_mean,
        triple_sum_fn=triple_sum,
        label=f"inversion(n={n}, m={m})",
    )


def match_family(kind: str, n: int, m: int) -> DissociatedFamily:
    """The family of a match kind: "birthday" draws or "inversion" table entries."""
    if kind == "birthday":
        return birthday_family(n, m)
    if kind == "inversion":
        return inversion_family(n, m)
    raise ValueError(f"unknown kind {kind!r}")


def stein_chen_bound(family: DissociatedFamily) -> SteinChenReport:
    """Assemble the computable total-variation bound for the family.

    The overlapping cross-mean sum is evaluated through the rearrangement
    sum_i (row sum_i)^2 - 2 sum (E D)^2, which is O(|T|^2); the direct
    double loop over overlapping pairs is kept in the tests as an oracle.
    """
    pairs = family.pairs()
    if not pairs:
        return SteinChenReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    t = family.base_set_size
    means = {}
    mu = 0.0
    sq = 0.0
    row = [0.0] * (t + 1)
    for i, j in pairs:
        e = family.pair_mean(i, j)
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"pair mean out of [0,1] at ({i},{j}): {e}")
        means[(i, j)] = e
        mu += e
        sq += e * e
        row[i] += e
        row[j] += e
    cross = sum(r * r for r in row) - 2.0 * sq

    if family.triple_sum_fn is not None:
        triple = family.triple_sum_fn()
    else:
        triple = ordered_triple_sum(family, means)

    if mu <= 0.0:
        return SteinChenReport(0.0, 0.0, t * sq, triple, sq, cross)
    factor = -math.expm1(-mu) / mu
    tv_bound = factor * (sq + cross + triple)
    return SteinChenReport(mu, tv_bound, t * sq, triple, sq, cross)


def ordered_triple_sum(family: DissociatedFamily, means: dict | None = None) -> float:
    """The ordered overlapping-triple sum by the literal O(|T|^3) loop.

    Serves as the oracle for the families' closed-form aggregates; also
    validates each triple mean against its pair-mean cap.
    """
    t = family.base_set_size
    if means is None:
        means = {(i, j): family.pair_mean(i, j) for i, j in family.pairs()}
    in_family = means.__contains__
    triple = 0.0
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            if j == i or not in_family((min(i, j), max(i, j))):
                continue
            for k in range(1, t + 1):
                if k == i or k == j:
                    continue
                if not in_family((min(i, k), max(i, k))):
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
    pairs = family.pairs()
    if pairs:
        lower = report.mu ** 2 / len(pairs)
        if report.squared_means_sum < lower * (1.0 - 1e-12):
            raise AssertionError(
                "Cauchy-Schwarz violated: sum of squared means "
                f"{report.squared_means_sum} < mu^2/|S| = {lower}"
            )
    return report.hypothesis_sq, report.hypothesis_triple


# ---------------------------------------------------------------------------
# exact total variation for enumerable instances
# ---------------------------------------------------------------------------


def _mixed_radix_states(radices: list[int]) -> np.ndarray:
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
    if kind == "birthday":
        if not 1 <= n <= ENUM_BIRTHDAY_N:
            raise ResourceBoundError(f"birthday enumeration bounded at n <= {ENUM_BIRTHDAY_N}")
        if m > n:
            raise ValueError("need m <= n")
        radices = [n] * (m + 1)
    elif kind == "inversion":
        if not 1 <= n <= ENUM_INVERSION_N:
            raise ResourceBoundError(f"inversion enumeration bounded at n <= {ENUM_INVERSION_N}")
        if m + 1 > n:
            raise ValueError("need m+1 <= n")
        radices = [n - i + 1 for i in range(1, m + 2)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    states = _mixed_radix_states(radices)
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
