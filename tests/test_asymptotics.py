"""Asymptotic expansions against the exact laws they approximate."""

import cmath
import itertools
import math
import warnings
from fractions import Fraction

import pytest

from collisort import asymptotics, exact
from collisort.asymptotics import (
    euler_maclaurin_residual,
    expected_opcount_deltas,
    log_factorial_hp,
    scaled_collision_cdf_approx,
    scaled_collision_pmf_approx,
    scaled_pass_cdf_approx,
    scaled_pass_charfn_approx,
    scaled_pass_moment_approx,
    scaled_pass_pmf_approx,
    scaled_pass_stats_approx,
    scaled_pass_survival,
    scaled_pass_survival_expansion,
)
from collisort.distributions import rayleigh_charfn
from collisort.hpreal import HPReal
from oracles import ln_frac


# -- log factorial -------------------------------------------------------------


def test_log_factorial_at_one():
    assert abs(float(log_factorial_hp(1))) <= 1e-14


def test_log_factorial_exact_oracle_small():
    got = log_factorial_hp(10)
    ref = ln_frac(Fraction(math.factorial(10)))
    assert abs(float(got.to_fraction() - ref)) <= got.err


def test_log_factorial_large_argument():
    got = log_factorial_hp(170)
    ref = ln_frac(Fraction(math.factorial(170)))
    dev = abs(float(got.to_fraction() - ref))
    assert dev <= got.err
    assert dev / float(ref) <= 1e-25


def test_log_factorial_domain():
    with pytest.raises(ValueError):
        log_factorial_hp(0.5)


# -- survival of the scaled pass statistic ---------------------------------------


def test_survival_at_zero():
    assert float(scaled_pass_survival(100, 0.0)) == 1.0


def test_survival_tiny_lattice_point():
    # lattice m = 2 at n = 3, matching the 1/6 enumeration
    x = 2.0 / math.sqrt(3.0)
    assert float(scaled_pass_survival(3, x)) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_survival_headline_point():
    x = 22.0 / math.sqrt(365.0)
    assert abs(float(scaled_pass_survival(365, x)) - 0.4857848) <= 5e-8


def test_survival_off_lattice_rejected():
    with pytest.raises(ValueError):
        scaled_pass_survival(100, 0.05)
    with pytest.raises(ValueError):
        scaled_pass_survival(100, 100.0)


def test_survival_equals_rational_law_up_to_60():
    # on the lattice the survival is the pass-count CDF exactly
    for n in (7, 23, 41, 60):
        sq = math.sqrt(n)
        for m in range(0, n):
            got = scaled_pass_survival(n, m / sq)
            assert abs(got.to_fraction() - exact.pass_cdf_fraction(n, m)) <= got.err


def test_expansion_at_zero():
    assert scaled_pass_survival_expansion(10**4, 0.0) == 1.0


# the lattice rule's messages, pinned: pass values run 0..n-1, collision
# values 1..n, each law's range read from `exact.LATTICES`
LATTICE_ERRORS = [
    ("pass", 100, 0.15, "x*sqrt(n) = 1.5 is not an integer lattice point"),
    ("pass", 100, 10.0, "lattice index x*sqrt(n) = 100 outside 0..99"),
    ("pass", 100, -0.1, "lattice index x*sqrt(n) = -1 outside 0..99"),
    ("pass", 4, 2.0, "lattice index x*sqrt(n) = 4 outside 0..3"),
    ("pass", 1, 1.0, "lattice index x*sqrt(n) = 1 outside 0..0"),
    ("collision", 100, 0.15, "x*sqrt(n) = 1.5 is not an integer lattice point"),
    ("collision", 100, 10.1, "lattice index x*sqrt(n) = 101 outside 1..100"),
    ("collision", 4, 0.0, "lattice index x*sqrt(n) = 0 outside 1..4"),
    ("collision", 1, 0.0, "lattice index x*sqrt(n) = 0 outside 1..1"),
    ("pass", 100, math.nan, "x must be finite, got x=nan"),
    ("pass", 100, math.inf, "x must be finite, got x=inf"),
    ("collision", 100, math.nan, "x must be finite, got x=nan"),
    ("collision", 100, -math.inf, "x must be finite, got x=-inf"),
    ("pass", 100, 1e308, "lattice index x*sqrt(n) = inf outside 0..99"),
    ("collision", 100, 1e308, "lattice index x*sqrt(n) = inf outside 1..100"),
]
LATTICE_FUNCTIONS = {
    "pass": (scaled_pass_survival, scaled_pass_cdf_approx, scaled_pass_pmf_approx),
    "collision": (scaled_collision_cdf_approx, scaled_collision_pmf_approx),
}


@pytest.mark.parametrize("kind, n, x, message", LATTICE_ERRORS)
def test_lattice_errors_unchanged(kind, n, x, message):
    for fn in LATTICE_FUNCTIONS[kind]:
        with pytest.raises(ValueError) as info:
            fn(n, x)
        assert str(info.value) == f"{fn.__name__}: {message}"


@pytest.mark.filterwarnings("ignore:.*beyond comfort zone:RuntimeWarning")  # the top ends
def test_lattice_ends_are_accepted():
    for n in (1, 4, 100):
        for fn in LATTICE_FUNCTIONS["pass"]:
            fn(n, 0.0)
            fn(n, (n - 1) / math.sqrt(n))
        for fn in LATTICE_FUNCTIONS["collision"]:
            fn(n, 1 / math.sqrt(n))
            fn(n, n / math.sqrt(n))


@pytest.mark.parametrize("n", [1, 2, 3, 100, 10**4 + 7, 10**9, 2**53 - 1, 2**53, 2**53 + 5,
                               10**17, 2**60])
def test_printed_lattice_points_map_back(n):
    # x = v/sqrt(n) as printed (repr) gives x*sqrt(n) within v 2^-52 of v; a
    # quarter-step cap keeps a point 0.3 off the lattice out at every size
    sq = math.sqrt(n)
    for kind, (_, first) in exact.LATTICES.items():
        top = first + n - 1
        values = {first, first + 1, round(sq), round(math.pi * sq), round(13.6 * sq),
                  top if n <= 10**9 else first}
        for v in sorted(w for w in values if first <= w <= top):
            assert asymptotics._lattice_index(kind, n, float(repr(v / sq)), "f") == v
            if v > 10**8:
                with pytest.raises(ValueError, match="not an integer lattice point"):
                    asymptotics._lattice_index(kind, n, (v + 0.3) / sq, "f")


def test_expansion_near_exact_at_lattice():
    got = scaled_pass_survival_expansion(10**4, 1.0)
    ref = float(scaled_pass_survival(10**4, 1.0))  # 100 is an exact lattice index
    assert got == pytest.approx(ref, rel=5e-7)


def test_expansion_error_order():
    errs = []
    for n in (100, 400, 1600):
        m = round(math.sqrt(n))
        ref = float(scaled_pass_survival(n, m / math.sqrt(n)))
        errs.append(abs(scaled_pass_survival_expansion(n, 1.0) - ref))
    assert 16.0 <= errs[0] / errs[1] <= 64.0
    assert 16.0 <= errs[1] / errs[2] <= 64.0


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_expansion_rejects_non_finite_x(x):
    message = f"scaled_pass_survival_expansion: x must be finite, got x={x}"
    with pytest.raises(ValueError, match=message):
        scaled_pass_survival_expansion(100, x)


@pytest.mark.filterwarnings("ignore:.*beyond comfort zone:RuntimeWarning")
def test_expansion_refuses_x_whose_sixth_power_overflows():
    assert scaled_pass_survival_expansion(4, 2e51) == 0.0  # 2e51^6 is still a double
    for x in (3e51, 1e308):
        with pytest.raises(ValueError) as info:
            scaled_pass_survival_expansion(4, x)
        assert str(info.value).startswith(f"x={x} is too large: its power x^")


def test_expansion_warns_out_of_comfort_zone():
    # 2 n^(1/6) = 4.309 at n = 100; the CDFs and PMFs drop the same h^5 x^7 term as the survival
    for fn in (scaled_pass_survival_expansion, scaled_pass_cdf_approx, scaled_pass_pmf_approx,
               scaled_collision_cdf_approx, scaled_collision_pmf_approx):
        message = f"^{fn.__name__}: x=6.0 beyond comfort zone"
        with pytest.warns(RuntimeWarning, match=message) as seen:
            fn(100, 6.0)
        assert seen[0].filename == __file__  # reported at the caller's line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(100, 4.3)


# -- CDF / PMF approximations ------------------------------------------------------


def test_pass_cdf_approx_at_zero():
    # F_X(0) = 1 - S_1 = 1/n, from the survival's -1/n term one lattice step up
    for n in (10**4, 10**12, 10**18):
        assert scaled_pass_cdf_approx(n, 0.0) == pytest.approx(1 / n, rel=1e-12, abs=0.0)


def test_pass_cdf_approx_accuracy():
    n = 10**4
    got = scaled_pass_cdf_approx(n, 1.0)
    ref = 1.0 - float(exact.pass_cdf(n, 101))  # F(x) = 1 - survival(x + 1/sqrt n)
    assert got == pytest.approx(ref, abs=2e-4)


def test_pass_cdf_approx_headline_point():
    # F(x_m) = 1 - survival(x_{m+1}); the printed survival 0.4857848 sits
    # at lattice depth 22, so it is the CDF complement at depth 21
    got = scaled_pass_cdf_approx(365, 21.0 / math.sqrt(365.0))
    assert got == pytest.approx(1.0 - 0.4857848, abs=5e-3)
    got = scaled_pass_cdf_approx(365, 22.0 / math.sqrt(365.0))
    assert got == pytest.approx(1.0 - float(exact.pass_cdf(365, 23)), abs=5e-3)


def test_pass_cdf_approx_off_lattice():
    with pytest.raises(ValueError):
        scaled_pass_cdf_approx(10**4, 0.005)


@pytest.mark.parametrize("kind, approx, n, rel", [
    ("pass", scaled_pass_pmf_approx, 10**4, 1e-6), ("pass", scaled_pass_pmf_approx, 10**6, 1e-10),
    ("pass", scaled_pass_cdf_approx, 10**3, 1e-6), ("pass", scaled_pass_cdf_approx, 10**6, 1e-12),
    ("collision", scaled_collision_pmf_approx, 10**4, 1e-6),
    ("collision", scaled_collision_pmf_approx, 10**6, 1e-10),
    ("collision", scaled_collision_cdf_approx, 10**3, 1e-6),
    ("collision", scaled_collision_cdf_approx, 10**6, 1e-12),
])
def test_pmf_approx_is_the_exact_survival_difference(kind, approx, n, rel):
    # at every lattice value v = m + first with m < 4 sqrt(n), x = 0 on the pass
    # side included, against the exact lattice pmf S_m - S_(m+1) or cdf 1 - S_(m+1),
    # taken in double-double: in floats two survivals near 1 cancel
    sequence, first = exact.LATTICES[kind]
    survival = [s for _, s in itertools.islice(sequence(n), 4 * math.isqrt(n) + 1)]
    for m in range(4 * math.isqrt(n)):
        ref = float((1.0 if "cdf" in approx.__name__ else survival[m]) - survival[m + 1])
        assert approx(n, (m + first) / math.sqrt(n)) == pytest.approx(ref, rel=rel, abs=0.0)


@pytest.mark.parametrize("n", [10**12, 10**18])
@pytest.mark.parametrize("kind, pmf, survival", [
    ("pass", scaled_pass_pmf_approx, exact.pass_cdf_fraction),
    ("collision", scaled_collision_pmf_approx, exact.collision_sf_fraction),
])
def test_pmf_approx_keeps_its_digits_at_large_n(kind, pmf, survival, n):
    # near the bottom of the lattice both survivals round to 1 in floats while
    # the pmf is ~(m + 1)/n; against the exact S_m - S_(m+1) in Fractions
    first = exact.LATTICES[kind][1]
    for m in (0, 1, 2, 1000):
        ref = float(survival(n, m) - survival(n, m + 1))
        assert pmf(n, (m + first) / math.isqrt(n)) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [10**12, 10**18])
def test_collision_cdf_approx_keeps_its_digits_at_large_n(n):
    # F_Z(m/sqrt n) = 1 - S_(m+1) is ~m(m+1)/(2n) here; 1 - exp(E) kept 5 digits at
    # n = 10^12 and none at 10^18, where the expansion's own error is below 1e-12
    for m in (1, 2):
        ref = float(1 - exact.collision_sf_fraction(n, m))
        got = scaled_collision_cdf_approx(n, m / math.isqrt(n))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("ignore:.*beyond comfort zone:RuntimeWarning")  # x up to 15
def test_pass_pmf_approx_sums_to_one():
    n = 10**4
    sq = math.sqrt(n)
    total = sum(scaled_pass_pmf_approx(n, m / sq) for m in range(0, 1500))
    # the lattice pmf is the step of the survival expansion, which is 1 at
    # x = 0 and ~e^-112 at x = 15, so its sum telescopes to 1
    assert total == pytest.approx(1.0, abs=1e-13)


def test_collision_pmf_small_argument_behavior():
    n = 10**4
    z = 1.0 / math.sqrt(n)
    assert scaled_collision_pmf_approx(n, z) == pytest.approx(z / math.sqrt(n), rel=0.01)


def test_collision_cdf_approx_headline_point():
    z = 22.0 / math.sqrt(365.0)
    got = scaled_collision_cdf_approx(365, z)
    ref = 1.0 - float(exact.collision_sf(365, 22))
    assert got == pytest.approx(ref, abs=6e-3)


# -- Euler-Maclaurin ---------------------------------------------------------------


def test_em_residual_small_n():
    assert euler_maclaurin_residual(100, 0.15) < 1e-3


def test_em_residual_quadratic_decay():
    r1 = euler_maclaurin_residual(10**4, 0.15)
    r2 = euler_maclaurin_residual(4 * 10**4, 0.15)
    assert 8.0 <= r1 / r2 <= 32.0


def test_em_residual_epsilon_same_order():
    # different cuts change only the Theta(1/n^2)-sized remainder
    ra = euler_maclaurin_residual(10**4, 0.16)
    rb = euler_maclaurin_residual(10**4, 0.10)
    assert 0.1 <= ra / rb <= 10.0


def test_em_residual_domain():
    with pytest.raises(ValueError):
        euler_maclaurin_residual(10**4, 0.2)
    with pytest.raises(ValueError):
        euler_maclaurin_residual(10**4, 0.0)
    with pytest.raises(ValueError):
        euler_maclaurin_residual(50, 0.1)


# -- moments / characteristic function / stats --------------------------------------


def test_moment_approx_order_zero():
    assert scaled_pass_moment_approx(10**4, 0) == 1.0


def test_moment_approx_first_two():
    n = 10**4
    assert abs(scaled_pass_moment_approx(n, 1) - float(exact.scaled_pass_moment(n, 1))) <= 5.0 / n
    assert scaled_pass_moment_approx(n, 2) == pytest.approx(1.950365345384, abs=6e-4)


def test_charfn_at_zero():
    assert scaled_pass_charfn_approx(10**4, 0.0) == 1.0 + 0.0j


def test_charfn_conjugate_symmetry():
    for t in (0.3, 1.0, 2.5):
        a = scaled_pass_charfn_approx(10**4, t)
        b = scaled_pass_charfn_approx(10**4, -t)
        assert cmath.isclose(a.conjugate(), b, rel_tol=1e-14)


def test_charfn_matches_exact_lattice_sum():
    n = 10**4
    got = scaled_pass_charfn_approx(n, 0.5)
    ref = exact.scaled_pass_charfn_exact(n, 0.5)
    assert abs(got - ref) <= 2e-3


def test_charfn_limit_is_rayleigh():
    # the finite-n corrections vanish as n grows
    t = 1.0
    got = scaled_pass_charfn_approx(10**12, t)
    assert abs(got - rayleigh_charfn(t)) <= 2e-6


def test_charfn_range_guard():
    with pytest.raises(ValueError):
        scaled_pass_charfn_approx(100, 9.0)


def test_stats_headline_values():
    stats = scaled_pass_stats_approx(10**4)
    assert stats.mean_approx == pytest.approx(1.23670494307065, rel=1e-12)
    assert stats.second_moment_approx == pytest.approx(1.950365345354, rel=1e-12)
    assert stats.variance_approx == pytest.approx(0.4209262291679, rel=1e-12)


def test_stats_variance_consistent_with_truncation():
    # v differs from e2 - e^2 only by dropped cross terms of order n^-5/2
    for n in (100, 10**4):
        stats = scaled_pass_stats_approx(n)
        drop = abs(stats.variance_approx - (stats.second_moment_approx - stats.mean_approx**2))
        assert drop <= 1.0 * n ** (-2.5)


def test_stats_track_exact_moments():
    # remainder of the five-term truncations is Theta(n^-5/2): fit the
    # constant at n = 100, then validate at larger n (factor-2 slack
    # covers the constant's drift toward its asymptotic value)
    def deviations(n):
        stats = scaled_pass_stats_approx(n)
        return (
            abs(stats.mean_approx - float(exact.scaled_pass_moment(n, 1))),
            abs(stats.second_moment_approx - float(exact.scaled_pass_moment(n, 2))),
            abs(stats.variance_approx - float(exact.scaled_pass_variance(n))),
        )

    fitted = [d * 100 ** 2.5 for d in deviations(100)]
    for n in (400, 1600, 10**4):
        for dev, c in zip(deviations(n), fitted):
            assert dev <= 2.0 * c * n ** (-2.5)


# -- expected operation-count deltas --------------------------------------------------


def test_opcount_deltas_finite_and_bounded_at_two():
    deltas = expected_opcount_deltas(2)
    assert deltas.comparison_reduction < 2
    assert math.isfinite(deltas.flag_writes_early_exit)
    assert math.isfinite(deltas.flag_writes_variant)


def test_opcount_reduction_below_n():
    for n in (2, 3, 5, 10, 100, 10**4):
        assert expected_opcount_deltas(n).comparison_reduction < n


def test_opcount_reduction_matches_exact_moments():
    n = 10**4
    deltas = expected_opcount_deltas(n)
    e1 = float(exact.scaled_pass_moment(n, 1))
    e2 = float(exact.scaled_pass_moment(n, 2))
    exact_reduction = (n * e2 - math.sqrt(n) * e1) / 2.0
    assert deltas.comparison_reduction == pytest.approx(exact_reduction, abs=1e-2)


def test_opcount_flag_writes_match_exact_expectations():
    # flag writes of the early exit: E(P) + n(n-1)/4
    n = 10**4
    deltas = expected_opcount_deltas(n)
    expected_passes = n - math.sqrt(n) * float(exact.scaled_pass_moment(n, 1))
    assert deltas.flag_writes_early_exit == pytest.approx(
        expected_passes + n * (n - 1) / 4.0, abs=1e-2
    )


def test_opcount_flag_writes_past_n_squared_in_doubles():
    # n (n - 1) = 2^1024 - 2^512 is no double; n ((n - 1)/4) stays one
    n = 2**512
    assert expected_opcount_deltas(n).flag_writes_early_exit == pytest.approx(2.0**1022)


@pytest.mark.parametrize("n", [24, 100, 10**4])
def test_opcount_variant_flag_writes_are_two_passes_minus_one(n):
    # the variant writes its flag 2P - 1 times per run (OPS-FLAGS-VARIANT-N8)
    expected_passes = n - math.sqrt(n) * float(exact.scaled_pass_moment(n, 1))
    deltas = expected_opcount_deltas(n)
    assert deltas.flag_writes_variant == pytest.approx(2.0 * expected_passes - 1.0, abs=1e-2)


def test_net_cost_positive_for_both_variants():
    # the flag-write increase dominates the comparison reduction
    deltas = expected_opcount_deltas(10**4)
    assert deltas.flag_writes_early_exit - deltas.comparison_reduction > 0
    assert deltas.flag_writes_variant - deltas.comparison_reduction > 0


# -- the expansion generator ----------------------------------------------------------


def _series(terms):
    """{(j, a): c} from (j, a, numerator, denominator) rows."""
    return {(j, a): Fraction(num, den) for j, a, num, den in terms}


def _derivative(series):
    return {(j, a - 1): a * c for (j, a), c in series.items() if a}


def test_generated_exponents_equal_the_closed_forms():
    # -x^2/2 - (2x^3+3x)/6 h - (x^4+x^2)/4 h^2 - (12x^5+10x^3-5x)/60 h^3
    # - (4x^6+3x^4-2x^2)/24 h^4, and its x-derivatives
    exponent = _series([(0, 2, -1, 2), (1, 3, -1, 3), (1, 1, -1, 2), (2, 4, -1, 4), (2, 2, -1, 4),
                        (3, 5, -1, 5), (3, 3, -1, 6), (3, 1, 1, 12), (4, 6, -1, 6), (4, 4, -1, 8),
                        (4, 2, 1, 12)])
    assert asymptotics._exponent("pass", 0, 4) == exponent
    g1 = _series([(0, 1, -1, 1), (1, 2, -1, 1), (1, 0, -1, 2), (2, 3, -1, 1), (2, 1, -1, 2),
                  (3, 4, -1, 1), (3, 2, -1, 2), (3, 0, 1, 12), (4, 5, -1, 1), (4, 3, -1, 2),
                  (4, 1, 1, 6)])
    g2 = _series([(0, 0, -1, 1), (1, 1, -2, 1), (2, 2, -3, 1), (2, 0, -1, 2), (3, 3, -4, 1),
                  (3, 1, -1, 1), (4, 4, -5, 1), (4, 2, -3, 2), (4, 0, 1, 6)])
    g3 = _series([(1, 0, -2, 1), (2, 1, -6, 1), (3, 2, -12, 1), (3, 0, -1, 1), (4, 3, -20, 1),
                  (4, 1, -3, 1)])
    assert _derivative(exponent) == g1
    assert _derivative(g1) == g2
    assert _derivative(g2) == g3
    # the order-1 exponents one lattice step up that ORD-CDF-*'s rates pin:
    # -(2x^3+9x)/6 at pass shift +1, -(z^3+3z)/6 for the collision
    assert asymptotics._exponent("pass", 1, 1) == _series(
        [(0, 2, -1, 2), (1, 3, -1, 3), (1, 1, -3, 2)])
    assert asymptotics._exponent("collision", 0, 1) == _series(
        [(0, 2, -1, 2), (1, 3, -1, 6), (1, 1, -1, 2)])


def test_generated_moments_equal_the_closed_forms():
    # series in h^j sqrt(pi/2)^p
    mean = _series([(0, 1, 1, 1), (1, 0, -5, 3), (2, 1, 11, 24), (3, 0, 4, 135),
                    (4, 1, -71, 1152)])
    second = _series([(0, 0, 2, 1), (1, 1, -4, 1), (2, 0, 5, 1), (3, 1, -5, 3), (4, 0, -4, 135)])
    # (4-pi)/2, -2/3, (160-33pi)/72, -107/540, -(1125pi-1792)/25920 with pi = 2 sqrt(pi/2)^2
    variance = _series([(0, 0, 2, 1), (0, 2, -1, 1), (1, 1, -2, 3), (2, 0, 20, 9), (2, 2, -11, 12),
                        (3, 1, -107, 540), (4, 0, 1792, 25920), (4, 2, -2250, 25920)])
    assert asymptotics._moment("pass", 1, 4) == mean
    assert asymptotics._moment("pass", 2, 4) == second
    assert asymptotics._pass_variance(4) == variance
    # sqrt(2)^k Gamma(k/2+1) and sqrt(2)^(k+1) k(k+4)/6 Gamma((k+1)/2), the two terms of
    # the former two-term moments, as (power of sqrt(pi/2), rational) pairs
    terms = [((0, 1), (0, 0)), ((1, 1), (0, Fraction(5, 3))), ((0, 2), (1, 4)), ((1, 3), (0, 14)),
             ((0, 8), (1, 32)), ((1, 15), (0, 120)), ((0, 48), (1, 300)), ((1, 105), (0, 1232)),
             ((0, 384), (1, 3360))]
    for k, ((p0, lead), (p1, corr)) in enumerate(terms):
        want = {(0, p0): Fraction(lead), (1, p1): -Fraction(corr)}
        assert asymptotics._moment("pass", k, 1) == {key: c for key, c in want.items() if c}, k


def test_generated_opcount_series_equal_the_closed_forms():
    # with n = h^-2 and E X^k through h^(k+2):
    # (n E2 - sqrt(n) E1)/2 = n - 5/2 sqrt(pi n/2) + 10/3 - 17/16 sqrt(pi/(2n)) - 4/(135 n)
    # E[P] = n - sqrt(n) E1 = n - sqrt(pi n/2) + 5/3 - 11/24 sqrt(pi/(2n)) - 4/(135 n)
    e1 = {(j - 1, p): c for (j, p), c in asymptotics._moment("pass", 1, 3).items()}
    e2 = {(j - 2, p): c for (j, p), c in asymptotics._moment("pass", 2, 4).items()}
    reduction = {key: (e2.get(key, 0) - e1.get(key, 0)) / 2 for key in e1.keys() | e2.keys()}
    assert reduction == _series([(-2, 0, 1, 1), (-1, 1, -5, 2), (0, 0, 10, 3), (1, 1, -17, 16),
                                 (2, 0, -4, 135)])
    assert e1 == _series([(-1, 1, 1, 1), (0, 0, -5, 3), (1, 1, 11, 24), (2, 0, 4, 135)])
    for n in (2, 24, 10**4):
        root_n, inv_root = math.sqrt(math.pi * n / 2.0), math.sqrt(math.pi / (2.0 * n))
        passes = n - root_n + 5.0 / 3.0 - 11.0 / 24.0 * inv_root - 4.0 / (135.0 * n)
        deltas = expected_opcount_deltas(n)
        assert deltas.comparison_reduction == pytest.approx(
            n - 2.5 * root_n + 10.0 / 3.0 - 17.0 / 16.0 * inv_root - 4.0 / (135.0 * n), rel=1e-13)
        assert deltas.flag_writes_early_exit == pytest.approx(passes + n * (n - 1) / 4, rel=1e-13)
        assert deltas.flag_writes_variant == pytest.approx(2 * passes - 1, rel=1e-13)


def test_collision_mean_series_is_ramanujan_q():
    # E Z = Q(n)/sqrt(n), Q(n) = sqrt(pi n/2) - 1/3 + 1/12 sqrt(pi/(2n)) - 4/(135 n)
    # + 1/288 sqrt(pi/(2 n^3)) + ...
    assert asymptotics._moment("collision", 1, 4) == _series(
        [(0, 1, 1, 1), (1, 0, -1, 3), (2, 1, 1, 12), (3, 0, -4, 135), (4, 1, 1, 288)])


@pytest.mark.parametrize("kind", ["pass", "collision"])
@pytest.mark.parametrize("k", [1, 2])
def test_moment_residual_falls_at_the_next_order(kind, k):
    # exact minus the order-J series is Theta(n^-(J+1)/2): 10^(J+1) from n = 10^4 to 10^6
    moment = {"pass": exact.scaled_pass_moment, "collision": exact.scaled_collision_moment}[kind]
    for order in range(4):
        terms = asymptotics._floats(asymptotics._moment, kind, k, order)
        residuals = [abs(float(moment(n, k) - asymptotics._value(
            terms, n, asymptotics._ROOT_HALF_PI))) for n in (10**4, 10**6)]
        assert 0.5 <= residuals[0] / residuals[1] / 10 ** (order + 1) <= 2.0, order


def test_stirling_constants_from_bernoulli_unchanged():
    assert asymptotics._STIRLING_REMAINDER == 5.0 / 66.0 / 90.0
    literal = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260), Fraction(-1, 1680)]
    assert [(c.hi, c.lo, c.err) for c in asymptotics._STIRLING_COEFFS] == [
        (c.hi, c.lo, c.err) for c in map(HPReal.from_fraction, literal)]


@pytest.mark.parametrize("call", [
    pytest.param(lambda: scaled_pass_survival(0, 0.0), id="survival-n0"),
    pytest.param(lambda: scaled_pass_survival_expansion(0, 1.0), id="expansion-n0"),
])
def test_asymptotics_refuses_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
