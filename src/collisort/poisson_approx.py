"""Stein-Chen total-variation bounds for match counts among nested uniforms.

A family holds independent entries U_1, ..., U_t, entry i uniform on
{0..s_i - 1}, with support sizes s_1 >= s_2 >= ... >= s_t >= 1, so each
support lies inside every earlier one.  Birthday draws have every s_i = n;
inversion-table entries have s_i = n - i + 1; both lists come from `exact`
(`birthday_supports`, `inversion_supports`), which states them for the exact
laws too.  The count W of matching
pairs {i, j} (U_i = U_j) sums dissociated indicators: collections living
on disjoint index sets are independent.  By Arratia, Goldstein and Gordon
(1989) the total-variation distance between W and the Poisson law with
the same mean is bounded by

    (1 - e^-mu)/mu * [ sum (E D)^2
                       + sum over overlapping pairs (E D E D' + E(D D'))]

which is computable from the support sizes alone.  The exact law of W, for
the distance itself, comes from one integer sweep over the values.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .distributions import PoissonLaw, poisson_pmf_vector
from .exact import birthday_supports, inversion_supports
from .sorters import ENUM_BIRTHDAY_LIMIT, check_enumeration_n

ENUM_BIRTHDAY_N = ENUM_BIRTHDAY_LIMIT  # the birthday survival oracle's limit too
ENUM_INVERSION_N = 8


class DissociatedFamily(namedtuple("DissociatedFamily", "supports")):
    """Pair-match indicators among independent uniforms on nested supports.

    Entry i (1-based) is uniform on {0..supports[i-1] - 1}; the supports
    are positive and non-increasing.  Summing over the common support, a
    pair of entries matches with probability 1/(larger support) and a
    triple with probability 1/(product of the two larger supports).
    """

    __slots__ = ()

    def __new__(cls, supports: tuple[int, ...]):
        s = supports
        if any(size < 1 for size in s) or any(a < b for a, b in zip(s, s[1:])):
            raise ValueError(f"supports must be positive and non-increasing, got {s}")
        return super().__new__(cls, supports)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


class SteinChenReport(namedtuple("SteinChenReport", "mu tv_bound hypothesis_sq "
                                 "hypothesis_triple squared_means_sum cross_means_sum")):
    """hypothesis_sq is |T| times the sum of squared pair means, and
    hypothesis_triple the sum over ordered overlapping triples."""

    __slots__ = ()


def birthday_family(n: int, m: int) -> DissociatedFamily:
    """Match indicators among the first m+1 uniform draws on n days."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return DissociatedFamily(birthday_supports(n, m))


def inversion_family(n: int, m: int) -> DissociatedFamily:
    """Match indicators among the first m+1 inversion-table entries;
    entry i is uniform on {0..n-i}."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if m + 1 > n:
        raise ValueError(f"inversion family needs m+1 <= n, got m={m}, n={n}")
    return DissociatedFamily(tuple(inversion_supports(n, m)))


# each match kind: its family and the largest n that `match_count_law` takes
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
    sum_i (row sum_i)^2 - 2 sum (E D)^2.  A triple a < b < c matches with
    probability 1/(s_a s_b): at each c the pass adds half of (sum 1/s)^2 -
    sum 1/s^2 over earlier entries, a sixth of the ordered triple sum.  The
    literal loops over pairs and triples are test oracles (`tests/oracles.py`).
    """
    t = len(family.supports)
    if t < 2:
        return SteinChenReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mu = sq = rows_sq = running = running_sq = triples = 0.0  # running: sum of 1/s_j, j < i
    for i, size in enumerate(family.supports):
        triples += (running * running - running_sq) / 2.0
        inv = 1.0 / size
        later = (t - 1 - i) * inv  # the pairs {i, j}, j > i, each of mean 1/s_i
        mu += later
        sq += later * inv
        row = running + later
        rows_sq += row * row
        running += inv
        running_sq += inv * inv
    cross = rows_sq - 2.0 * sq
    triple = 6.0 * triples
    factor = -math.expm1(-mu) / mu
    tv_bound = factor * (sq + cross + triple)
    return SteinChenReport(mu, tv_bound, t * sq, triple, sq, cross)


def poisson_limit_functionals(family: DissociatedFamily) -> tuple[float, float]:
    """The two vanishing-hypothesis functionals of the Poisson limit.

    Returns (|T| * sum (E D)^2, ordered overlapping-triple sum).  Also
    checks, rather than trusts, the Cauchy-Schwarz consequence
    sum (E D)^2 >= mu^2 / |S|.
    """
    report = stein_chen_bound(family)
    t = len(family.supports)
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


def match_count_law(kind: str, n: int, m: int) -> dict[int, float]:
    """Exact law of the pairwise match count W, by one sweep over the values v
    from the largest support - 1 down to 0: c of the e unvalued entries whose
    support exceeds v take v in C(e, c) ways and add c(c-1)/2 to W, so a partial
    tuple needs only its state (entries valued, W).  Each P(W = w) is one
    correctly rounded quotient of exact integers."""
    family, limit = _match_kind(kind)
    check_enumeration_n(kind, n, limit)
    if m > n:
        raise ValueError("need m <= n")
    supports = family(n, m).supports
    ways = Counter({(0, 0): 1})  # (entries valued, W) -> partial tuples
    for v in range(supports[0] - 1, -1, -1):
        eligible, swept = sum(size > v for size in supports), Counter()
        for (valued, w), count in ways.items():
            for c in range(eligible - valued + 1):
                swept[valued + c, w + c * (c - 1) // 2] += count * math.comb(eligible - valued, c)
        ways = swept
    total, t = math.prod(supports), len(supports)
    return {w: count / total for (valued, w), count in sorted(ways.items()) if valued == t}


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
