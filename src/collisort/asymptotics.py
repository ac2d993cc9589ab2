"""Asymptotic expansions for the scaled pass and collision statistics.

The scaled statistics are X = (n - passes)/sqrt(n) for bubble sort and
Z = (collision count - 1)/sqrt(n) for the birthday process.  Everything
here approximates their laws and moments by expansions valid for large n;
the exact counterparts live in `exact` and serve as oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .exact import pass_cdf, pass_survival_sequence
from .hpreal import HPReal, PI, hp
from .distributions import normal_cdf_imag
from .quadrature import adaptive_quad

# Stirling-series correction coefficients: B_2j / (2j (2j-1)) for j = 1..4,
# kept exact; a float 1/12 alone would cost ~1e-20 at x ~ 170
_STIRLING_COEFFS = tuple(
    HPReal.from_fraction(Fraction(num, den))
    for num, den in ((1, 12), (-1, 360), (1, 1260), (-1, 1680))
)
_STIRLING_SHIFT = 30  # shift small arguments up so the 1/x^7 tail suffices
_STIRLING_REMAINDER = 5.0 / 66.0 / 90.0  # |B_10| / (9 * 10), over x^9

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
# survival of the scaled pass statistic
# ---------------------------------------------------------------------------


def _lattice_index(n: int, x: float, lo: int, hi: int, what: str) -> int:
    """Map x to the integer x*sqrt(n), rejecting off-lattice arguments."""
    mf = x * math.sqrt(n)
    m = round(mf)
    if abs(mf - m) > 1e-8 * max(1.0, abs(mf)):
        raise ValueError(f"{what}: x*sqrt(n) = {mf} is not an integer lattice point")
    if not lo <= m <= hi:
        raise ValueError(f"{what}: lattice index {m} outside {lo}..{hi}")
    return m


def scaled_pass_survival(n: int, x: float) -> HPReal:
    """P{X >= x} at the lattice point x = m/sqrt(n), m in 0..n-1.

    Evaluated by the finite product (never through Gamma), identical to
    the pass-count CDF at depth m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = _lattice_index(n, x, 0, n - 1, "scaled_pass_survival")
    return pass_cdf(n, m)


def scaled_pass_survival_expansion(n: int, x: float) -> float:
    """Expansion of the scaled-pass survival, exact through the 1/n^2 term.

    exp(-x^2/2) * exp(-(2x^3+3x)/(6 sqrt n) - (x^4+x^2)/(4n)
                      - (12x^5+10x^3-5x)/(60 n sqrt n)
                      - (4x^6+3x^4-2x^2)/(24 n^2)).

    The dropped remainder grows like x^7/n^2.5; a RuntimeWarning is
    issued once x exceeds 2 n^(1/6), where that remainder starts to
    dominate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x > 2.0 * n ** (1.0 / 6.0):
        warnings.warn(
            f"scaled_pass_survival_expansion: x={x} beyond comfort zone "
            f"2 n^(1/6)={2.0 * n ** (1.0 / 6.0):.3f}; remainder dominates",
            RuntimeWarning,
            stacklevel=2,
        )
    return math.exp(-x * x / 2.0 + _expansion_exponent_tail(n, x))


def _expansion_exponent_tail(n: int, x: float) -> float:
    """The finite-n part of the survival expansion's exponent."""
    sq = math.sqrt(n)
    return (
        -(2 * x ** 3 + 3 * x) / (6 * sq)
        - (x ** 4 + x ** 2) / (4 * n)
        - (12 * x ** 5 + 10 * x ** 3 - 5 * x) / (60 * n * sq)
        - (4 * x ** 6 + 3 * x ** 4 - 2 * x ** 2) / (24 * n * n)
    )


def _expansion_g1(n: int, x: float) -> float:
    sq = math.sqrt(n)
    return (
        -x
        - (2 * x * x + 1) / (2 * sq)
        - (2 * x ** 3 + x) / (2 * n)
        - (12 * x ** 4 + 6 * x * x - 1) / (12 * n * sq)
        - (6 * x ** 5 + 3 * x ** 3 - x) / (6 * n * n)
    )


def _expansion_g2(n: int, x: float) -> float:
    sq = math.sqrt(n)
    return (
        -1.0
        - 2 * x / sq
        - (6 * x * x + 1) / (2 * n)
        - (4 * x ** 3 + x) / (n * sq)
        - (30 * x ** 4 + 9 * x * x - 1) / (6 * n * n)
    )


def _expansion_g3(n: int, x: float) -> float:
    sq = math.sqrt(n)
    return (
        -2.0 / sq
        - 6 * x / n
        - (12 * x * x + 1) / (n * sq)
        - (20 * x ** 3 + 3 * x) / (n * n)
    )


def _expansion_d1(n: int, x: float) -> float:
    """First derivative of the survival expansion."""
    return _expansion_g1(n, x) * scaled_pass_survival_expansion(n, x)


def _expansion_d3(n: int, x: float) -> float:
    """Third derivative of the survival expansion."""
    g1 = _expansion_g1(n, x)
    g2 = _expansion_g2(n, x)
    g3 = _expansion_g3(n, x)
    return (g3 + 3 * g1 * g2 + g1 ** 3) * scaled_pass_survival_expansion(n, x)


# ---------------------------------------------------------------------------
# CDF / PMF approximations
# ---------------------------------------------------------------------------


def scaled_pass_cdf_approx(n: int, x: float) -> float:
    """F_X(x) ~ 1 - exp(-x^2/2) exp(-(2x^3+9x)/(6 sqrt n)) on the lattice.

    Remainder is of order x^4/n.  The topmost lattice point (passes = 1)
    extrapolates the formula beyond its derivation range.
    """
    _lattice_index(n, x, 0, n - 1, "scaled_pass_cdf_approx")
    return 1.0 - math.exp(-x * x / 2.0 - (2 * x ** 3 + 9 * x) / (6 * math.sqrt(n)))


def scaled_pass_pmf_approx(n: int, x: float) -> float:
    """P{X = x} ~ (x exp(-x^2/2)/sqrt n) exp(-(x^4-3)/(3 x sqrt n)).

    The exponent is singular at x = 0, so the lattice's lowest point is
    rejected; the exact lattice pmf from survival differences is the
    authoritative value there.
    """
    m = _lattice_index(n, x, 0, n - 1, "scaled_pass_pmf_approx")
    if m == 0:
        raise ValueError("scaled_pass_pmf_approx is singular at x = 0")
    sq = math.sqrt(n)
    return (math.exp(-x * x / 2.0) * x / sq) * math.exp(
        -(x ** 4 - 3.0) / (3.0 * x * sq)
    )


def scaled_collision_cdf_approx(n: int, z: float) -> float:
    """F_Z(z) ~ 1 - exp(-z^2/2) exp(-(z^3+3z)/(6 sqrt n)) on the lattice."""
    _lattice_index(n, z, 1, n, "scaled_collision_cdf_approx")
    return 1.0 - math.exp(-z * z / 2.0 - (z ** 3 + 3 * z) / (6 * math.sqrt(n)))


def scaled_collision_pmf_approx(n: int, z: float) -> float:
    """P{Z = z} ~ (z exp(-z^2/2)/sqrt n) exp(-(z^3-3z)/(6 sqrt n))."""
    _lattice_index(n, z, 1, n, "scaled_collision_pmf_approx")
    sq = math.sqrt(n)
    return (math.exp(-z * z / 2.0) * z / sq) * math.exp(
        -(z ** 3 - 3 * z) / (6.0 * sq)
    )


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
    if not 0.0 < epsilon < 1.0 / 6.0:
        raise ValueError(f"epsilon must lie in (0, 1/6), got {epsilon}")
    if n < 100:
        raise ValueError("euler_maclaurin_residual calibrated for n >= 100")
    sq = math.sqrt(n)
    m_cut = int(math.floor(n ** epsilon * sq))
    m_cut = min(m_cut, n - 1)
    cut = m_cut / sq

    lattice_sum = hp(0.0)
    for m, rho in pass_survival_sequence(n, floor=0.0):
        if m > m_cut:
            break
        lattice_sum = lattice_sum + rho

    integral = adaptive_quad(
        lambda x: scaled_pass_survival_expansion(n, x), 0.0, cut, abs_tol=1e-14
    )
    f0 = 1.0
    fA = scaled_pass_survival_expansion(n, cut)
    em = (
        sq * integral
        + (f0 + fA) / 2.0
        + (_expansion_d1(n, cut) - _expansion_d1(n, 0.0)) / (12.0 * sq)
        - (_expansion_d3(n, cut) - _expansion_d3(n, 0.0)) / (720.0 * n * sq)
    )
    return abs(float(lattice_sum) - em)


# ---------------------------------------------------------------------------
# moments, characteristic function, statistics
# ---------------------------------------------------------------------------


def scaled_pass_moment_approx(n: int, k: int) -> float:
    """Two-term moment expansion:
    sqrt(2)^k (Gamma(k/2+1) - sqrt(2) k(k+4)/(6 sqrt n) Gamma((k+1)/2)).
    """
    if not 0 <= k <= 8:
        raise ValueError("moment order supported for 0 <= k <= 8")
    lead = math.gamma(k / 2.0 + 1.0)
    corr = math.sqrt(2.0) * k * (k + 4) / (6.0 * math.sqrt(n)) * math.gamma(
        (k + 1) / 2.0
    )
    return math.sqrt(2.0) ** k * (lead - corr)


def scaled_pass_charfn_approx(n: int, t: float) -> complex:
    """First-order characteristic function of the scaled pass statistic.

    (1 - (6-t^2) i t/(3 sqrt n)) sqrt(2 pi) e^(-t^2/2) (i t) Phi(i t)
      + (1 - (5-t^2) i t/(3 sqrt n)).
    """
    if not abs(t) <= 8.0:
        raise ValueError(f"charfn approximation supported for |t| <= 8, got t={t}")
    sq = math.sqrt(n)
    it = complex(0.0, t)
    first = (1.0 - (6.0 - t * t) * it / (3.0 * sq)) * (
        math.sqrt(2.0 * math.pi) * math.exp(-t * t / 2.0) * it * normal_cdf_imag(t)
    )
    second = 1.0 - (5.0 - t * t) * it / (3.0 * sq)
    return first + second


@dataclass(frozen=True)
class ApproxStats:
    """Truncated mean / second moment / variance of the scaled pass statistic."""

    mean_approx: float
    second_moment_approx: float
    variance_approx: float
    n: int


def scaled_pass_stats_approx(n: int) -> ApproxStats:
    """Five-term expansions of E(X), E(X^2), V(X), accurate to 1/(n^2 sqrt n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    sq = math.sqrt(n)
    half_pi = math.sqrt(math.pi / 2.0)
    half_pi_n = math.sqrt(math.pi / (2.0 * n))
    mean = (
        half_pi
        - 5.0 / (3.0 * sq)
        + 11.0 / (24.0 * n) * half_pi
        + 4.0 / (135.0 * n * sq)
        - 71.0 / (1152.0 * n * n) * half_pi
    )
    second = (
        2.0
        - 4.0 * half_pi_n
        + 5.0 / n
        - 5.0 / (3.0 * n) * half_pi_n
        - 4.0 / (135.0 * n * n)
    )
    variance = (
        (4.0 - math.pi) / 2.0
        - 2.0 / 3.0 * half_pi_n
        + (160.0 - 33.0 * math.pi) / (72.0 * n)
        - 107.0 / (540.0 * n) * half_pi_n
        - (1125.0 * math.pi - 1792.0) / (25920.0 * n * n)
    )
    return ApproxStats(mean, second, variance, n)


# ---------------------------------------------------------------------------
# expected operation-count deltas of the early-exit variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedOpDeltas:
    """Expected operation-count changes of the early-exit sorts vs plain.

    comparison_reduction applies identically to both early-exit variants;
    flag_writes_* are the added boolean assignments.
    """

    comparison_reduction: float
    flag_writes_early_exit: float
    flag_writes_variant: float
    n: int


def expected_opcount_deltas(n: int) -> ExpectedOpDeltas:
    """Expansions of the expected operation-count deltas.

    comparison_reduction = E[(n-P-1)(n-P)/2]
        = n - (5/2) sqrt(pi n/2) + 10/3 - (17/16) sqrt(pi/(2n)) - 4/(135 n)

    flag_writes_early_exit = E[P] + E[total inversions], and since the
    total-inversion mean of a uniform permutation is exactly n(n-1)/4,
        = n^2/4 + 3n/4 - sqrt(pi n/2) + 5/3 - (11/24) sqrt(pi/(2n)) - 4/(135 n)

    flag_writes_variant = 2 E[P] - 1, since the variant writes its flag
    2P - 1 times per run,
        = 2n - 2 sqrt(pi n/2) + 7/3 - (11/12) sqrt(pi/(2n)) - 8/(135 n)
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    root_n = math.sqrt(math.pi * n / 2.0)
    inv_root = math.sqrt(math.pi / (2.0 * n))
    comparison = (
        n - 2.5 * root_n + 10.0 / 3.0 - 17.0 / 16.0 * inv_root - 4.0 / (135.0 * n)
    )
    flags_opt = (
        n * n / 4.0
        + 3.0 * n / 4.0
        - root_n
        + 5.0 / 3.0
        - 11.0 / 24.0 * inv_root
        - 4.0 / (135.0 * n)
    )
    flags_variant = (
        2.0 * n
        - 2.0 * root_n
        + 7.0 / 3.0
        - 11.0 / 12.0 * inv_root
        - 8.0 / (135.0 * n)
    )
    return ExpectedOpDeltas(comparison, flags_opt, flags_variant, n)
