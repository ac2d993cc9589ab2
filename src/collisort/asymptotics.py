"""Asymptotic expansions for the scaled pass and collision statistics.

The scaled statistics are X = (n - passes)/sqrt(n) for bubble sort and
Z = (collision count - 1)/sqrt(n) for the birthday process.  Everything
here approximates their laws and moments by expansions valid for large n;
the exact counterparts live in `exact` and serve as oracles.

Survival, CDF, PMF and moment expansions are generated from the log series of
the product forms: the survival, both CDFs and both PMFs read one exponent,
`_survival_terms`, and the moments its Euler-Maclaurin sum (`_moment`); the
charfn is the only closed form.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .exact import (LATTICES, _MAX_MOMENT_ORDER, pass_cdf, pass_survival_sequence,
                    scaled_pass_moment)
from .hpreal import HPReal, PI, hp
from .powersums import bernoulli, faulhaber_coefficients

# Stirling-series correction coefficients: B_2j / (2j (2j-1)) for j = 1..4,
# kept exact; a float 1/12 alone would cost ~1e-20 at x ~ 170
_STIRLING_COEFFS = tuple(
    HPReal.from_fraction(bernoulli(2 * j) / (2 * j * (2 * j - 1))) for j in range(1, 5)
)
_STIRLING_SHIFT = 30  # shift small arguments up so the 1/x^7 tail suffices
# |B_10| / (9 * 10), over x^9, rounded up
_STIRLING_REMAINDER = math.nextafter(float(abs(bernoulli(10)) / 90), math.inf)

TWO_PI_HP = PI * 2.0


def log_factorial_hp(x: float) -> HPReal:
    """ln Gamma(x+1) = ln(x!) by the Stirling series through the 1/x^7 term.

    Arguments below 30 are shifted upward by the recurrence
    ln Gamma(x+1) = ln Gamma(x+K+1) - sum ln(x+i) so the truncated series
    still delivers ~25 correct digits; the series remainder is folded
    into the err field.
    """
    if x < 1.0:
        raise ValueError(f"log_factorial_hp requires x >= 1, got {x}")
    shift = 0
    if x < _STIRLING_SHIFT:
        shift = int(math.ceil(_STIRLING_SHIFT - x))
    y = hp(x) + shift
    yf = float(y)
    # 0.5 ln(2 pi y) + y (ln y - 1) + sum_j c_j / y^(2j-1)
    log_y = y.log()
    total = (TWO_PI_HP * y).log() * 0.5 + y * (log_y - 1.0)
    inv_y2 = hp(1.0) / (y * y)
    term = hp(1.0) / y
    for c in _STIRLING_COEFFS:
        total = total + term * c
        term = term * inv_y2
    remainder = _STIRLING_REMAINDER / yf ** 9
    total = HPReal(total.hi, total.lo, total.err + remainder)
    for i in range(1, shift + 1):
        total = total - hp(x + i).log()
    return total


# ---------------------------------------------------------------------------
# the expansion generator: series {(j, a): Fraction} for h^j y^a, h = n^-1/2
# ---------------------------------------------------------------------------

_ROOT_HALF_PI = math.sqrt(math.pi / 2.0)


def _mul(p, q, order: int) -> dict:
    """Product of two series, dropping the powers of h beyond ``order``."""
    out: dict = {}
    for (j, a), c in p.items():
        for (i, b), d in q.items():
            if i + j <= order:
                out[i + j, a + b] = out.get((i + j, a + b), 0) + c * d
    return out


def _add(p, q, scale=1) -> dict:
    """p + scale * q, without zero terms."""
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def _exponent(kind: str, shift: int, order: int) -> MappingProxyType:
    """log of the survival at m = x/h + shift, in h^j x^a through h^order.

    The collision series -sum_k S_k(m)/(k n^k) has base n = h^-2; the pass
    series sum_k (-1)^k S_k(m)/(k (n-m)^k) has n - m = h^-2 (1 - u) with
    u = x h + shift h^2.  h^(k+1) S_k(m) = sum_i c_i h^(k+1-i) (x + shift h)^i
    by Faulhaber, so term k starts at h^(k-1) and k <= order + 1 suffice.
    """
    out: dict = {}
    for k in range(1, order + 2):
        top = order + 1 - k  # the order of h left for term k
        poly, power = {}, {(0, 0): Fraction(1)}  # power = (x + shift h)^i
        for i, c in enumerate(faulhaber_coefficients(k)):
            poly = _add(poly, {(j + k + 1 - i, a): d for (j, a), d in power.items()}, c)
            power = _mul(power, {(0, 1): 1, (1, 0): shift}, top)
        geometric = u_power = {(0, 0): Fraction(1)}  # (1 - u)^-k = sum_t C(k+t-1, t) u^t
        for t in range(1, top + 1 if kind == "pass" else 1):
            u_power = _mul(u_power, {(1, 1): 1, (2, 0): shift}, top)
            geometric = _add(geometric, u_power, math.comb(k + t - 1, t))
        out = _add(out, {(j + k - 1, a): c for (j, a), c in _mul(poly, geometric, top).items()},
                   Fraction((-1) ** k if kind == "pass" else -1, k))
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def _moment(kind: str, k: int, order: int) -> MappingProxyType:
    """E X^k (or E Z^k) in h^j sqrt(pi/2)^p through h^order.

    Abel summation gives E X^k = (-h)^k + sum_(m >= 0) g(m h) with
    g(x) = (x^k - (x-h)^k) P{X >= x} = G(h, x) e^(-x^2/2), the survival being
    exp(exponent).  Euler-Maclaurin gives the sum as (1/h) int_0^inf g
    - sum_i B_i h^(i-1) g^(i-1)(0)/i!, with B_1 = -1/2 and int_0^inf x^a
    e^(-x^2/2) dx = (a-1)!!, times sqrt(pi/2) for even a.
    """
    tail = {key: c for key, c in _exponent(kind, -LATTICES[kind][1], order).items() if key[0]}
    survival = term = {(0, 0): Fraction(1)}  # times e^(-x^2/2)
    for t in range(1, order + 1):
        term = {key: c / t for key, c in _mul(term, tail, order).items()}
        survival = _add(survival, term)
    step = {(i, k - i): -math.comb(k, i) * Fraction(-1) ** i for i in range(1, k + 1)}
    out = {(k, 0): Fraction(-1) ** k} if k <= order else {}
    for (j, a), c in _mul(step, survival, order + 1).items():
        out = _add(out, {(j - 1, (a + 1) % 2): c * math.prod(range(a - 1, 0, -2))})
        for i in range(a + 1, order + 2 - j, 2):  # x^(i-1) = x^a times x^(2p) of e^(-x^2/2)
            p = (i - 1 - a) // 2
            out = _add(out, {(j + i - 1, 0): c * Fraction(-1, 2) ** p / math.factorial(p)},
                       -bernoulli(i) / i)
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def _pass_variance(order: int) -> MappingProxyType:
    """E X^2 - (E X)^2, truncated after h^order in Q[sqrt(pi/2)]."""
    mean = _moment("pass", 1, order)
    return MappingProxyType(_add(_moment("pass", 2, order), _mul(mean, mean, order), -1))


@lru_cache(maxsize=None)
def _floats(series, *args) -> tuple[tuple[int, int, float], ...]:
    """The terms (j, a, c) of series(*args), with c a float, made once."""
    return tuple((j, a, float(c)) for (j, a), c in series(*args).items())


def _value(terms, n: int, y: float) -> float:
    """sum c h^j y^a at h = n^-1/2 and y (x, or sqrt(pi/2) for moments); an x whose
    power x^a overflows a double is refused by a ValueError that names it."""
    h, total = 1.0 / math.sqrt(n), 0.0
    try:
        for j, a, c in terms:
            total += c * h ** j * y ** a
    except OverflowError:
        raise ValueError(f"x={y} is too large: its power x^{a} overflows a double") from None
    return total


# ---------------------------------------------------------------------------
# survival, CDF and PMF approximations
# ---------------------------------------------------------------------------


def _lattice_index(kind: str, n: int, x: float, what: str) -> int:
    """Map x to the lattice value x*sqrt(n) of ``kind``, rejecting points off
    the lattice or outside its values first..first + n - 1."""
    if not math.isfinite(x):
        raise ValueError(f"{what}: x must be finite, got x={x}")
    lo = LATTICES[kind][1]
    mf = x * math.sqrt(n)
    m = round(mf) if math.isfinite(mf) else mf  # an infinite product fails the range check
    if abs(mf - m) > 1e-8 * max(1.0, abs(mf)):
        raise ValueError(f"{what}: x*sqrt(n) = {mf} is not an integer lattice point")
    if not lo <= m < lo + n:
        raise ValueError(f"{what}: lattice index x*sqrt(n) = {m} outside {lo}..{lo + n - 1}")
    return m


def _survival_terms(kind: str):
    """Float terms of E, the generated log P{value >= x sqrt(n)}, exact through 1/n^2."""
    return _floats(_exponent, kind, -LATTICES[kind][1], 4)


def _warn_past_comfort_zone(n: int, x: float, what: str, stacklevel: int) -> None:
    """RuntimeWarning once x exceeds 2 n^(1/6), where the h^5 x^7 term that
    `_survival_terms` drops (both kinds) starts to dominate; ``stacklevel``
    counts from the caller, as warnings.warn's does."""
    zone = 2.0 * n ** (1.0 / 6.0)
    if x > zone:
        warnings.warn(f"{what}: x={x} beyond comfort zone 2 n^(1/6)={zone:.3f}; "
                      "remainder dominates", RuntimeWarning, stacklevel=stacklevel + 1)


def _lattice_law(kind: str, law: str, n: int, x: float) -> float:
    """The CDF P{value <= x sqrt(n)} = 1 - P{value >= x sqrt(n) + 1} ~ -expm1(E(x) + D(x)) or
    the PMF P{value = x sqrt(n)} ~ -exp(E(x)) expm1(D(x)), with E the `_survival_terms` and
    D(x) = E(x + h) - E(x), h = n^-1/2, each term's step c h^j ((x + h)^a - x^a) expanded:
    survivals near 1 at the lattice's foot never cancel."""
    what = f"scaled_{kind}_{law}_approx"
    _lattice_index(kind, n, x, what)
    _warn_past_comfort_zone(n, x, what, stacklevel=3)
    terms = _survival_terms(kind)
    step = [(j + i, a - i, c * math.comb(a, i)) for j, a, c in terms for i in range(1, a + 1)]
    e, d = _value(terms, n, x), _value(step, n, x)
    return -math.expm1(e + d) if law == "cdf" else -math.exp(e) * math.expm1(d)


def scaled_pass_survival(n: int, x: float) -> HPReal:
    """P{X >= x} at the lattice point x = m/sqrt(n), m in 0..n-1.

    Evaluated by the finite product (never through Gamma), identical to
    the pass-count CDF at depth m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = _lattice_index("pass", n, x, "scaled_pass_survival")
    return pass_cdf(n, m)


def scaled_pass_survival_expansion(n: int, x: float) -> float:
    """exp of the generated pass exponent at m = x sqrt(n), exact through
    the 1/n^2 term: -x^2/2 plus four terms in n^(-1/2).

    The dropped remainder grows like x^7/n^2.5; a RuntimeWarning is
    issued once x exceeds 2 n^(1/6), where that remainder starts to
    dominate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not math.isfinite(x):
        raise ValueError(f"scaled_pass_survival_expansion: x must be finite, got x={x}")
    if x < 0:
        raise ValueError("x must be >= 0")
    _warn_past_comfort_zone(n, x, "scaled_pass_survival_expansion", stacklevel=2)
    return math.exp(_value(_survival_terms("pass"), n, x))


def _expansion_slopes(n: int, x: float) -> tuple[float, float]:
    """f' and f''' of the survival expansion f = exp(E), from E', E'', E'''."""
    terms = _survival_terms("pass")
    g1, g2, g3 = (_value([(j, a - d, c * math.perm(a, d)) for j, a, c in terms if a >= d], n, x)
                  for d in (1, 2, 3))
    f = scaled_pass_survival_expansion(n, x)
    return g1 * f, (g3 + 3 * g1 * g2 + g1 ** 3) * f


def scaled_pass_cdf_approx(n: int, x: float) -> float:
    """F_X(x) = 1 - P{X >= x + 1/sqrt n} on the lattice, by the generated survival one
    lattice step up; at x = 0, ~1/n."""
    return _lattice_law("pass", "cdf", n, x)


def scaled_pass_pmf_approx(n: int, x: float) -> float:
    """P{X = x} ~ P{X >= x} - P{X >= x + 1/sqrt n}, by the generated survival."""
    return _lattice_law("pass", "pmf", n, x)


def scaled_collision_cdf_approx(n: int, z: float) -> float:
    """F_Z(z) = 1 - P{Z >= z + 1/sqrt n} on the lattice, by the generated survival one
    lattice step up."""
    return _lattice_law("collision", "cdf", n, z)


def scaled_collision_pmf_approx(n: int, z: float) -> float:
    """P{Z = z} ~ P{Z >= z} - P{Z >= z + 1/sqrt n}, by the generated survival."""
    return _lattice_law("collision", "pmf", n, z)


# ---------------------------------------------------------------------------
# Euler-Maclaurin residual
# ---------------------------------------------------------------------------


def euler_maclaurin_residual(n: int, epsilon: float) -> float:
    """Gap between the exact lattice sum of the survival and its
    Euler-Maclaurin evaluation through the h^3 correction terms.

    The lattice sum of the exact survival over x = m/sqrt(n) <= n^epsilon
    is compared against

        sqrt(n) * integral_0^A expansion
        + (f(0) + f(A))/2 + (f'(A) - f'(0))/(12 sqrt n)
        - (f'''(A) - f'''(0))/(720 n sqrt n)

    with A the largest lattice point <= n^epsilon and f the survival
    expansion.  The asymptotic display drops the A-endpoint terms (they
    vanish faster than any power as n grows); at finite n they are kept
    so the residual scales at its true Theta(1/n^2) rate.
    """
    from .quadrature import adaptive_quad

    if not 0.0 < epsilon < 1.0 / 6.0:
        raise ValueError(f"epsilon must lie in (0, 1/6), got {epsilon}")
    if n < 100:
        raise ValueError("euler_maclaurin_residual calibrated for n >= 100")
    sq = math.sqrt(n)
    m_cut = min(int(math.floor(n ** epsilon * sq)), n - 1)
    cut = m_cut / sq

    lattice_sum = hp(0.0)  # terms past the walk's floor lie below the sum's last bit
    for m, rho in pass_survival_sequence(n):
        if m > m_cut:
            break
        lattice_sum = lattice_sum + rho

    integral = adaptive_quad(lambda x: scaled_pass_survival_expansion(n, x), 0.0, cut)
    fA = scaled_pass_survival_expansion(n, cut)
    (d1_0, d3_0), (d1_A, d3_A) = _expansion_slopes(n, 0.0), _expansion_slopes(n, cut)
    em = (
        sq * integral
        + (1.0 + fA) / 2.0
        + (d1_A - d1_0) / (12.0 * sq)
        - (d3_A - d3_0) / (720.0 * n * sq)
    )
    return abs(float(lattice_sum) - em)


# ---------------------------------------------------------------------------
# moments, characteristic function, statistics, expected operation counts
# ---------------------------------------------------------------------------


def scaled_pass_moment_approx(n: int, k: int) -> float:
    """Two-term moment expansion E X^k ~ c_0 + c_1/sqrt(n), generated by
    Euler-Maclaurin from the survival expansion."""
    if not 0 <= k <= _MAX_MOMENT_ORDER:
        raise ValueError(f"moment order supported for 0 <= k <= {_MAX_MOMENT_ORDER}")
    return _value(_floats(_moment, "pass", k, 1), n, _ROOT_HALF_PI)


def scaled_pass_charfn_approx(n: int, t: float) -> complex:
    """First-order characteristic function of the scaled pass statistic.

    (1 - (6-t^2) i t/(3 sqrt n)) sqrt(2 pi) e^(-t^2/2) (i t) Phi(i t)
      + (1 - (5-t^2) i t/(3 sqrt n)).
    """
    from .distributions import rayleigh_charfn_core

    if not abs(t) <= 8.0:
        raise ValueError(f"charfn approximation supported for |t| <= 8, got t={t}")
    sq = math.sqrt(n)
    it = complex(0.0, t)
    first = (1.0 - (6.0 - t * t) * it / (3.0 * sq)) * rayleigh_charfn_core(t)
    second = 1.0 - (5.0 - t * t) * it / (3.0 * sq)
    return first + second


class ApproxStats(namedtuple("ApproxStats",
                             "mean_approx second_moment_approx variance_approx n")):
    """Truncated mean / second moment / variance of the scaled pass statistic."""

    __slots__ = ()


def scaled_pass_stats_approx(n: int) -> ApproxStats:
    """Five-term expansions of E(X), E(X^2) and V(X) = E(X^2) - E(X)^2,
    each generated through the 1/n^2 term, so accurate to 1/(n^2 sqrt n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return ApproxStats(*(_value(_floats(*series), n, _ROOT_HALF_PI) for series in (
        (_moment, "pass", 1, 4), (_moment, "pass", 2, 4), (_pass_variance, 4))), n)


class ExpectedOpDeltas(namedtuple("ExpectedOpDeltas", "comparison_reduction "
                                  "flag_writes_early_exit flag_writes_variant n")):
    """Expected operation-count changes of the early-exit sorts vs plain.

    comparison_reduction applies identically to both early-exit variants;
    flag_writes_* are the added boolean assignments.
    """

    __slots__ = ()

    @classmethod
    def from_moments(cls, n: int, e1: float, e2: float) -> ExpectedOpDeltas:
        """The deltas from E X and E X^2 of X = (n - P)/sqrt(n):
          comparison_reduction   = E[(n-P-1)(n-P)/2] = (n E X^2 - sqrt(n) E X)/2;
          flag_writes_early_exit = E[P] + E[total inversions] = E[P] + n(n-1)/4;
          flag_writes_variant    = 2 E[P] - 1, since the variant writes its
                                   flag 2P - 1 times per run;
        with E[P] = n - sqrt(n) E X.
        """
        sq = math.sqrt(n)
        passes = n - sq * e1
        # n (n - 1) as one int would pass the double range from n = 2^512
        return cls((n * e2 - sq * e1) / 2.0, passes + n * ((n - 1) / 4.0), 2.0 * passes - 1.0, n)

    @classmethod
    def exact(cls, n: int) -> ExpectedOpDeltas:
        """The deltas from the exact moments `exact.scaled_pass_moment(n, 1 and 2)`."""
        return cls.from_moments(n, *(float(scaled_pass_moment(n, k)) for k in (1, 2)))


def expected_opcount_deltas(n: int) -> ExpectedOpDeltas:
    """Expansions of the expected operation-count deltas, through the 1/n term,
    from E X^k generated through n^(-(k+2)/2) (see ExpectedOpDeltas.from_moments).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    e1, e2 = (_value(_floats(_moment, "pass", k, k + 2), n, _ROOT_HALF_PI) for k in (1, 2))
    return ExpectedOpDeltas.from_moments(n, e1, e2)
