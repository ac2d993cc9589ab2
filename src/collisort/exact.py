"""Exact (high-precision) laws of bubble-sort passes and birthday collisions.

Two numeric backends back every quantity: `fractions.Fraction` for exact
rational oracles (practical up to n of a few hundred) and double-double
HPReal for production evaluation at any n.  Both laws are the probability
that m+1 uniform draws on nested supports s_0 >= ... >= s_m hold no match,
prod_{k=1..m} (s_(m-k) - k)/s_(m-k).  This module owns both families'
supports, which poisson_approx's Stein-Chen families and montecarlo's table
samplers also read: `birthday_supports` (s_i = n) and `inversion_supports`
(s_i = n - i):

    collision survival  P{C_n > m+1} = prod_{k=1..m} (1 - k/n)
    pass-count CDF      P{P_n <= n-m} = prod_{k=1..m} (1 - k/(n-m+k))

The collision product also runs at a real year length n, as the shifted
estimator needs; log-series forms give both laws at any truncation depth.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .hpreal import _TINY, _UNDERFLOW_FLOOR, HPReal, _dd_add, _dd_div, _dd_mul, _dd_pow, hp
from .powersums import MAX_ORDER, power_sum

SURVIVAL_FLOOR = 1e-40  # every survival walk stops after its first term below this
_MAX_MOMENT_ORDER = 8  # highest moment order, exact and asymptotic


class ProblemSize(namedtuple("ProblemSize", "n m")):
    """Year length / sequence length n and probe depth m."""

    __slots__ = ()

    def __new__(cls, n: int, m: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0 <= m <= n:
            raise ValueError(f"m must satisfy 0 <= m <= n, got m={m}, n={n}")
        return super().__new__(cls, n, m)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


class EstimateReport(namedtuple("EstimateReport",
                                "exact_ratio asymptotic_formula_value relative_error")):
    """Cross-estimation report: exact probability ratio (HPReal) vs asymptotic
    formula; relative_error is float(exact_ratio) - 1."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# product forms
# ---------------------------------------------------------------------------


# below this digit count the whole product fits one exact integer ratio;
# beyond it the numerator would overflow float conversion
_INT_RATIO_DIGITS = 280


def birthday_supports(n: float, m: int) -> tuple:
    """Supports of the first m+1 birthday draws: n days each; n may be a real
    year length, and an integer n of any type becomes a Python int."""
    return (operator.index(n) if hasattr(type(n), "__index__") else n,) * (m + 1)


def inversion_supports(n: int, m: int) -> range:
    """Supports of the first m+1 inversion-table entries, n, n-1, ..., n-m:
    entry i is uniform on {0..n-i}.  A range, so it stays lazy at sampler sizes."""
    return range(n, n - m - 1, -1)


# a factor-by-factor walk takes about 4.6 us a factor, so about 4.6 s at this cap
_WALK_LIMIT = 10**6


def _int_ratio(s, m: int) -> bool:
    """Whether the product form of m factors over largest support s is one
    exact integer ratio rather than a factor-by-factor walk."""
    return bool(m) and isinstance(s, int) and m * math.log10(s) < _INT_RATIO_DIGITS


def _no_match(supports_of, n, m: int) -> HPReal:
    """prod_{k=1..m} (s_(m-k) - k)/s_(m-k) over the nonincreasing supports
    (s_0, ..., s_m) = supports_of(n, m): walked from the smallest, the draw
    on s_(m-k) misses the k values drawn before it.

    One exact integer ratio (one rounding step) at integer supports whose
    product fits float range; otherwise, and at a real year length, factor
    by factor, refused as a resource bound past _WALK_LIMIT factors before
    the supports are built.  Empty product 1 at m = 0."""
    if m > _WALK_LIMIT:  # the integer ratio needs m < _INT_RATIO_DIGITS: a factor walk
        from .sorters import ResourceBoundError

        raise ResourceBoundError(
            f"product form walks m={m} factors one by one; bounded at m <= {_WALK_LIMIT} "
            "(the log-series forms take any m)")
    supports = supports_of(n, m)
    walk = supports[-2::-1]  # s_(m-1), ..., s_0
    if _int_ratio(supports[0], m):
        return (HPReal.from_int(math.prod(s - k for k, s in enumerate(walk, 1)))
                / HPReal.from_int(math.prod(walk)))
    prod = hp(1.0)
    for k, s in enumerate(walk, 1):
        prod = prod * (hp(s - k) / s)
    return prod


def collision_sf(n: int, m: int) -> HPReal:
    """P{C_n > m+1}: the first m+1 draws from n days are all distinct, the
    no-match product (n-1)...(n-m) / n^m; exactly 0 once m >= n (pigeonhole)."""
    if n < 1 or m < 0:
        raise ValueError("collision_sf needs n >= 1 and m >= 0")
    if m >= n:
        return hp(0.0)
    return _no_match(birthday_supports, n, m)


def pass_cdf(n: int, m: int) -> HPReal:
    """P{P_n <= n-m} for bubble sort of n distinct elements: the no-match
    product (n-m)^m (n-m)!/n! of the first m+1 inversion-table entries."""
    if n < 1 or m < 0:
        raise ValueError("pass_cdf needs n >= 1 and m >= 0")
    if m >= n:
        raise ValueError(f"pass_cdf requires m < n (P_n >= 1 always); got m={m}, n={n}")
    return _no_match(inversion_supports, n, m)


def collision_sf_fraction(n: int, m: int) -> Fraction:
    """Exact rational collision survival (oracle backend)."""
    if m >= n:
        return Fraction(0)
    prod = Fraction(1)
    for k in range(1, m + 1):
        prod *= Fraction(n - k, n)
    return prod


def pass_cdf_fraction(n: int, m: int) -> Fraction:
    """Exact rational pass-count CDF (oracle backend)."""
    if m >= n:
        raise ValueError("pass_cdf_fraction requires m < n")
    prod = Fraction(1)
    for k in range(1, m + 1):
        prod *= Fraction(n - m, n - m + k)
    return prod


# ---------------------------------------------------------------------------
# log-series forms
# ---------------------------------------------------------------------------


def _series_form(n: float, m: int, depth: int | None, alternating: bool) -> HPReal:
    """exp of the log series sum_k -+ power_sum(k, m) / (k base^k), k = 1..depth.

    The collision series has base n and all terms negative; the pass
    series has base n - m and alternates, starting negative.  With depth
    None the sum stops before the first term whose magnitude is below
    1e-16 of the summed magnitudes before it.  S_{k+1}(m) <= m S_k(m), so
    the terms shrink at least geometrically with ratio r = m/base; for
    r < 1 the dropped tail is at most that term / (1 - r), and it widens
    the exponent's err.  Without r < 1 the tail has no bound and the auto
    depth does not stop.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if not n > m:
        raise ValueError(f"series form requires n > m, got n={n}, m={m}")
    if depth is not None and not 1 <= depth <= MAX_ORDER:
        raise ValueError(f"depth must be in 1..{MAX_ORDER}")
    if m == 0:
        return hp(1.0)
    base = Fraction(n) - m if alternating else Fraction(n)
    exponent = hp(0.0)
    magnitude = Fraction(0)
    bp = Fraction(1)
    for k in range(1, (depth or MAX_ORDER) + 1):
        bp *= base
        term = Fraction(power_sum(k, m)) / (k * bp)
        if depth is None and term < Fraction(1, 10 ** 16) * magnitude and m < base:
            tail = float(term / (1 - m / base)) * (1.0 + 1e-15)
            return HPReal(exponent.hi, exponent.lo, exponent.err + tail).exp()
        magnitude += term
        exponent = exponent + HPReal.from_fraction(term if alternating and k % 2 == 0 else -term)
    if depth is None:
        raise ValueError(f"the {'pass-count' if alternating else 'collision'} log series does "
                         f"not converge within {MAX_ORDER} terms at n={n}, m={m}; "
                         "give an explicit depth or use the product form")
    return exponent.exp()


def collision_sf_series(n: float, m: int, depth: int | None = None) -> HPReal:
    """Collision survival via exp of the truncated log series.

    Accepts non-integer year length n; reduces to the product form for
    integer n as depth grows.
    """
    return _series_form(n, m, depth, alternating=False)


def pass_cdf_series(n: float, m: int, depth: int | None = None) -> HPReal:
    """Pass-count CDF via exp of the truncated alternating log series."""
    return _series_form(n, m, depth, alternating=True)


# ---------------------------------------------------------------------------
# sandwich bound, cross-estimation, optimal shift
# ---------------------------------------------------------------------------


def sandwich_bounds(n: int, m: int) -> tuple[HPReal, HPReal]:
    """(collision_sf(n-(m-1), m), collision_sf(n, m)), bracketing pass_cdf(n, m)."""
    if not 1 <= m < n:
        raise ValueError(f"sandwich_bounds needs 1 <= m < n, got m={m}, n={n}")
    if n - (m - 1) < m + 1:
        raise ValueError(
            f"lower bound degenerate: n-(m-1)={n - (m - 1)} < m+1={m + 1}"
        )
    return collision_sf(n - (m - 1), m), collision_sf(n, m)


def _estimate(year: float, n: int, m: int, formula: float) -> EstimateReport:
    """Report on the collision survival at year length ``year`` over pass_cdf(n, m)."""
    denom = pass_cdf(n, m)
    if float(denom) == 0.0:
        raise ZeroDivisionError("pass_cdf vanished; ratio undefined")
    ratio = _no_match(birthday_supports, year, m) / denom
    return EstimateReport(ratio, formula, float(ratio) - 1.0)


def relative_error_common(n: int, m: int) -> EstimateReport:
    """Error of estimating the pass CDF by the same-n collision survival.

    Asymptotically (m-1)m(m+1) / (6 (n - m/2)^2).
    """
    n, m = operator.index(n), operator.index(m)
    if not 1 <= m < n:
        raise ValueError(f"needs 1 <= m < n, got m={m}, n={n}")
    return _estimate(n, n, m, (m - 1) * m * (m + 1) / (6.0 * (n - m / 2.0) ** 2))


def relative_error_shifted(n: int, m: int) -> EstimateReport:
    """Error of the collision estimate at shifted year length n - (m-1)/3,
    the product form evaluated at that real year length.

    Asymptotically -(m-1)m(m+1)(m+2)(2m+1) / (270 (n - (4m-1)/6)^4).
    """
    n, m = operator.index(n), operator.index(m)
    if not 1 <= m < n:
        raise ValueError(f"needs 1 <= m < n, got m={m}, n={n}")
    shifted = n - (m - 1) / 3.0
    if not shifted > m:
        raise ValueError(f"shifted year length {shifted} must exceed m={m}")
    formula = (
        -(m - 1) * m * (m + 1) * (m + 2) * (2 * m + 1)
        / (270.0 * (n - (4 * m - 1) / 6.0) ** 4)
    )
    return _estimate(shifted, n, m, formula)


def optimal_shift(n: int, m: int) -> tuple[int, float]:
    """Best integer year-length shift k for the collision estimate.

    Brute-force argmin over k in [0, m) of |collision_sf(n-k, m)/pass_cdf(n, m) - 1|,
    paired with the asymptotic value (m-1)/3.  Refused as a resource bound,
    before any walk, when the shifts walked factor by factor would take more
    than _WALK_LIMIT factors in all.
    """
    if not 1 <= m < n:
        raise ValueError(f"needs 1 <= m < n, got m={m}, n={n}")
    # the walked shifts are the largest year lengths, so the first _WALK_LIMIT // m + 1
    # shifts show whether they pass the limit
    cap = _WALK_LIMIT // m
    walked = sum(n - k > m and not _int_ratio(n - k, m) for k in range(min(m, cap + 1)))
    if walked > cap:
        from .sorters import ResourceBoundError

        raise ResourceBoundError(
            f"optimal shift walks at least {walked * m} factors one by one (m={m} at each "
            f"of {walked} shifts); bounded at {_WALK_LIMIT} factors in all")
    target = pass_cdf(n, m)
    best_k = 0
    best_dev = None
    for k in range(0, m):
        if n - k <= m:
            continue  # collision estimate degenerate below year length m+1
        # in double-double: at large n the deviations fall below a float's ulp of 1
        dev = (collision_sf(n - k, m) / target - 1.0).abs()
        if best_dev is None or dev < best_dev:
            best_dev = dev
            best_k = k
    return best_k, (m - 1) / 3.0


# ---------------------------------------------------------------------------
# survival sequences and moments of the scaled statistics
# ---------------------------------------------------------------------------


# The survival kernel counts each value's double-double roundings in units of
# u^2 = 2^-106, weighted by the relative error bounds of `hpreal`: add 4,
# multiply 7, divide two doubles 2.  All operands are positive, so count K puts
# the value within gamma_K = K u^2 / (1 - K u^2) of the truth (Higham, Lemma
# 3.1); 1 + 2^-39 covers 1/(1 - gamma_K) and the rounding of err itself.
_ADD, _MUL, _DIV = 4, 7, 2
_U2 = 2.0 ** -106 * (1.0 + 2.0 ** -39)


def _survival_walk(n: float, factor):
    """Yield (m, S_m) for m = 0, 1, ... while m < n, S_0 = 1 and S_(m+1) =
    S_m * factor(m), a positive (hi, lo) and its count, stopping after the
    first term below SURVIVAL_FLOOR.  err is value * gamma_K plus HPReal's
    absolute allowance, carried as its multiplication carries it.  n < 2^53
    keeps every input exact."""
    if not n < 2.0 ** 53:
        raise ValueError(f"survival sequences need n < 2^53, got n={n}")
    hi, lo, units, tiny = 1.0, 0.0, 0, 0.0
    m = 0
    while m < n:
        yield m, HPReal(hi, lo, hi * units * _U2 + tiny)
        if hi < SURVIVAL_FLOOR:
            return
        fhi, flo, f_units = factor(m)
        nonzero = hi != 0.0 and fhi != 0.0
        hi, lo = _dd_mul(hi, lo, fhi, flo)
        units += f_units + _MUL
        tiny = tiny * (fhi + abs(flo)) + _TINY
        if hi < _UNDERFLOW_FLOOR and nonzero:
            tiny += _UNDERFLOW_FLOOR
        m += 1


def pass_survival_sequence(n: int):
    """Yield (m, P{P_n <= n-m}) for m = 0, 1, ... until below SURVIVAL_FLOOR.

    Uses the exact ratio ((n-m-1)/(n-m))^(m+1) between consecutive m: one
    double-double division and at most 2 log2(m+1) multiplications per step,
    on floats, with one a priori err per term.
    """
    def factor(m):  # squaring doubles a count and adds _MUL, so x^k has k (c + _MUL) - _MUL
        hi, lo = _dd_pow(*_dd_div(float(n - m - 1), 0.0, float(n - m), 0.0), m + 1)
        return hi, lo, (m + 1) * (_DIV + _MUL) - _MUL

    return _survival_walk(n, factor)


def collision_survival_sequence(n: float):
    """Yield (m, P{C_n > m+1}) for m = 0, 1, ... until below SURVIVAL_FLOOR.

    Each value is the falling product prod_{k=1..m} (1 - k/n), one factor
    (n-k)/n per step.  n may be any real year length: for float n < 2^53
    every n - k is exact, so each factor is rounded once.
    """
    def factor(m):
        return (*_dd_div(float(n - m - 1), 0.0, float(n), 0.0), _DIV)

    return _survival_walk(n, factor)


# lattice of each scaled statistic: its survival sequence yields
# (m, P{value >= m + first}) for lattice values first, first + 1, ...
LATTICES = {
    "pass": (pass_survival_sequence, 0),  # deficit d = n - P
    "collision": (collision_survival_sequence, 1),  # j = C - 1
}


def lattice_sf(kind: str, n: int, v: int) -> HPReal:
    """P{value >= v} at lattice value v >= first of ``kind``: term m = v - first
    of its survival sequence, from the product form; 0 past the last value."""
    m = v - LATTICES[kind][1]
    if m >= n:
        return hp(0.0)
    return pass_cdf(n, m) if kind == "pass" else collision_sf(n, m)


def _abel_moment(n: int, k: int, survival, first: int) -> HPReal:
    """k-th moment of X on the lattice x_j = j/sqrt(n) by Abel summation, from
    ``survival(n)``, which yields (m, S_m = P{X >= x_(m+first)}) with S_0 = 1:
        E X^k = n^(-k/2) sum_{j >= 1} (j^k - (j-1)^k) S_(j-first).
    The integer-weighted terms, none negative, are summed on floats and scaled
    once; on the pass lattice (first = 0) the start x_(-1)^k cancels against
    the j = 0 term, which leaves it weight 0.
    The tail below the survival floor (`_abel_tail`) is folded into the err field.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= _MAX_MOMENT_ORDER:
        raise ValueError(f"moment order supported for 0 <= k <= {_MAX_MOMENT_ORDER}")
    if k == 0:
        return hp(1.0)
    hi = lo = carried = 0.0  # carried: sum of the weighted term errs
    terms = m = prev = 0
    s = before = None
    for m, term in survival(n):
        before, s = s, term
        pk = (m + first) ** k
        w, prev = pk - prev, pk
        whi = float(w)  # whi + wlo is w within u^2 relative: one more unit
        thi, tlo = _dd_mul(whi, float(w - int(whi)), s.hi, s.lo)
        hi, lo = _dd_add(hi, lo, thi, tlo)
        carried += whi * s.err
        terms += 1
    # each term: its weight (1) and product (7), then at most `terms` additions
    err = hi * (1 + _MUL + _ADD * terms) * _U2 + carried * (1.0 + 2.0 ** -20)
    total = HPReal(hi, lo, err) * (hp(1.0) / hp(n).sqrt()).pow_int(k)
    if m < n - 1:
        total = HPReal(total.hi, total.lo, total.err + _abel_tail(n, k, m + first, s, before))
    return total


def _abel_tail(n: int, k: int, j: int, s: HPReal, before: HPReal) -> float:
    """Bound on the sum n^(-k/2) sum_(i > j) (i^k - (i-1)^k) S_i that the walk
    drops, with S_i = P{X >= x_i}, s = S_j its last term and before = S_(j-1).
    The step ratios of both laws are nonincreasing, so r = s/before bounds every
    later one; i^k - (i-1)^k <= k i^(k-1) <= k j^(k-1) ((j+1)/j)^((k-1)(i-j)), so
    with rho = ((j+1)/j)^(k-1) r < 1 the sum is below k j^(k-1) s rho/(1-rho)
    n^(-k/2).  Otherwise S_i < floor and i <= n give floor * n^(k/2).  1 + 2^-40
    covers the roundings."""
    top = s.hi + abs(s.lo) + s.err
    rho = ((j + 1) / j) ** (k - 1) * top / (before.hi - abs(before.lo) - before.err)
    rho *= 1.0 + 2.0 ** -40
    if rho >= 1.0:
        return SURVIVAL_FLOOR * float(n) ** (k / 2.0)
    return k * j ** (k - 1) * top * rho / (1.0 - rho) / n ** (k / 2) * (1.0 + 2.0 ** -40)


@lru_cache(maxsize=256)
def scaled_pass_moment(n: int, k: int) -> HPReal:
    """k-th moment of (n - P_n)/sqrt(n), by Abel-transformed summation.

    E = (-1/sqrt n)^k + sum_m ((m/sqrt n)^k - ((m-1)/sqrt n)^k) * rho(m)
    with rho(m) = P{P_n <= n-m}.
    """
    return _abel_moment(n, k, *LATTICES["pass"])


def scaled_pass_variance(n: int) -> HPReal:
    """Variance of (n - P_n)/sqrt(n)."""
    first = scaled_pass_moment(n, 1)
    second = scaled_pass_moment(n, 2)
    return second - first * first


def scaled_pass_charfn_exact(n: int, t: float) -> complex:
    """E exp(i t X) for X = (n - passes)/sqrt(n), from the exact lattice pmf.

    The pmf at lattice point m/sqrt(n) is the survival difference
    rho(m) - rho(m+1), with rho = 0 past the last term, so the last
    lattice point keeps the tail below the survival floor.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sq = math.sqrt(n)
    rho = [float(r) for _, r in pass_survival_sequence(n)] + [0.0]
    total = 0.0 + 0.0j
    for m in range(len(rho) - 1):
        total += cmath.exp(1j * t * m / sq) * (rho[m] - rho[m + 1])
    return total


@lru_cache(maxsize=256)
def scaled_collision_moment(n: int, k: int) -> HPReal:
    """k-th moment of (C_n - 1)/sqrt(n), by Abel-transformed summation.

    E = sum_{j=1..n} ((j/sqrt n)^k - ((j-1)/sqrt n)^k) * P{C_n > j}
    with P{C_n > j} = collision_sf(n, j-1).
    """
    return _abel_moment(n, k, *LATTICES["collision"])
