"""Exact laws: product forms, series forms, cross-estimation, moments."""

import hashlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations, product as cartesian

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collisort import ResourceBoundError, exact
from collisort.exact import (
    LATTICES,
    SURVIVAL_FLOOR,
    _BITS,
    _WALK_LIMIT,
    ProblemSize,
    _abel_tail,
    _no_match,
    birthday_supports,
    collision_sf,
    collision_sf_fraction,
    collision_sf_series,
    collision_survival_sequence,
    inversion_supports,
    optimal_shift,
    pass_cdf,
    pass_cdf_fraction,
    pass_cdf_series,
    pass_survival_sequence,
    relative_error_common,
    relative_error_shifted,
    sandwich_bounds,
    scaled_collision_moment,
    scaled_pass_charfn_exact,
    scaled_pass_moment,
    scaled_pass_variance,
)
from collisort.hpreal import _TINY, HPReal, hp

# exact rationals behind the headline 7-digit values, recorded from the
# Fraction oracle so the rounding of the printed digits is itself checked
HEADLINE_CASES = [
    (collision_sf_fraction, (365, 22), 0.4927028),
    (pass_cdf_fraction, (365, 22), 0.4857848),
    (collision_sf_fraction, (358, 22), 0.4857834),
]


# -- product forms ------------------------------------------------------------


def test_collision_sf_empty_and_degenerate():
    assert float(collision_sf(365, 0)) == 1.0 and collision_sf(365, 0).err == 0.0
    assert float(collision_sf(5, 5)) == 0.0
    assert float(collision_sf(5, 9)) == 0.0


def test_collision_sf_headline_value():
    v = collision_sf(365, 22)
    assert abs(float(v) - 0.4927028) <= 5e-8


def test_collision_sf_tiny_enumeration():
    # all 4 outcomes of (U1, U2) on 2 days: 2 distinct
    assert collision_sf_fraction(2, 1) == Fraction(1, 2)
    assert float(collision_sf(2, 1)) == 0.5 and collision_sf(2, 1).err == 0.0  # exact


def test_pass_cdf_headline_value():
    assert abs(float(pass_cdf(365, 22)) - 0.4857848) <= 5e-8


def test_pass_cdf_tiny_enumeration():
    # exactly the identity among the 6 permutations of 3 sorts in one pass
    assert pass_cdf_fraction(3, 2) == Fraction(1, 6)
    assert float(pass_cdf(3, 0)) == 1.0


def test_pass_cdf_domain():
    with pytest.raises(ValueError):
        pass_cdf(5, 5)
    with pytest.raises(ValueError):
        pass_cdf_fraction(5, 5)


@pytest.mark.parametrize("fn, args, printed", HEADLINE_CASES)
def test_headline_digits_round_from_exact_rationals(fn, args, printed):
    exact_value = fn(*args)
    assert abs(float(exact_value) - printed) <= 5e-8
    # the printed 7 digits are the round-to-nearest of the exact rational
    assert round(float(exact_value), 7) == printed


def test_hp_matches_fraction_within_err_up_to_60():
    for n in range(1, 61):
        for m in range(0, n):
            hp_c = collision_sf(n, m)
            assert abs(hp_c.to_fraction() - collision_sf_fraction(n, m)) <= hp_c.err
            hp_p = pass_cdf(n, m)
            assert abs(hp_p.to_fraction() - pass_cdf_fraction(n, m)) <= hp_p.err


# past 2 _BITS bits the products' integers are cut; the m cap keeps each Fraction
# oracle near 15 ms; at (163, 162) and (170, 169) pass_cdf's lo is subnormal
@settings(deadline=None)
@example(n=365, m=22)
@example(n=10**5, m=600)
@example(n=163, m=162)
@example(n=170, m=169)
@given(n=st.integers(min_value=2, max_value=10**5), m=st.integers(min_value=0, max_value=600))
def test_hp_matches_fraction_within_err_beyond_60(n, m):
    m = min(m, n - 1)
    hp_c = collision_sf(n, m)
    assert abs(hp_c.to_fraction() - collision_sf_fraction(n, m)) <= hp_c.err
    hp_p = pass_cdf(n, m)
    assert abs(hp_p.to_fraction() - pass_cdf_fraction(n, m)) <= hp_p.err


def test_supports_of_both_families():
    assert birthday_supports(5, 3) == (5, 5, 5, 5)
    assert birthday_supports(364.5, 0) == (364.5,)
    assert inversion_supports(6, 3) == range(6, 2, -1)
    assert list(inversion_supports(4, 3)) == [4, 3, 2, 1]  # a whole table: entry i on {0..n-i}
    assert len(inversion_supports(10**12, 10**12 - 1)) == 10**12  # lazy


def _bits(value):
    """(hi, lo, err) of each HPReal in a result; other fields as they are."""
    if hasattr(value, "err"):
        return value.hi, value.lo, value.err
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


@pytest.mark.parametrize("fn, n, m", [
    (collision_sf, 365, 22),
    (scaled_pass_moment, 1000, 1),
    (scaled_collision_moment, 1000, 1),
    (relative_error_common, 365, 22),
    (optimal_shift, 365, 22),
    (sandwich_bounds, 365, 22),
])
def test_numpy_integer_n_gives_the_int_result(fn, n, m):
    np = pytest.importorskip("numpy")
    if hasattr(fn, "cache_clear"):  # np.int64(n) == n, so a cached int result would answer
        fn.cache_clear()
    assert _bits(fn(np.int64(n), m)) == _bits(fn(n, m))


@pytest.mark.parametrize("fn", [relative_error_common, relative_error_shifted])
def test_numpy_integer_n_gives_a_report_of_python_floats(fn):
    np = pytest.importorskip("numpy")
    got, want = fn(np.int64(365), 22), fn(365, 22)
    for field in ("asymptotic_formula_value", "relative_error"):
        assert type(getattr(got, field)) is float
        assert getattr(got, field) == getattr(want, field)
    assert _bits(got.exact_ratio) == _bits(want.exact_ratio)


def test_birthday_supports_of_an_integer_n_are_ints():
    np = pytest.importorskip("numpy")
    assert [type(s) for s in birthday_supports(np.int64(365), 2)] == [int] * 3
    assert [type(s) for s in birthday_supports(365.0, 1)] == [float] * 2


def _no_match_fraction(supports) -> Fraction:
    """Literal product: from the smallest support up, draw k+1 misses the k before it."""
    prod = Fraction(1)
    for k, s in enumerate(reversed(supports)):
        prod *= (Fraction(s) - k) / Fraction(s)
    return prod


NESTED_SUPPORTS = [
    (9, 9, 7, 4, 4, 2),  # num and den exact
    (10**9,) * 40,  # 39 * 30 bits: num and den cut
    (364.5,) * 23,  # a real year length: each support 729/2
    (2**52, 2**40, 10**9, 1000, 7),
    (5,),  # m = 0
]


def _within_one_rounding(value: HPReal, exact_value: Fraction) -> None:
    """value within its err of the exact product, and err one rounding of it."""
    assert abs(value.to_fraction() - exact_value) <= value.err
    assert value.err <= 2.0**-104 * float(exact_value) + 2 * _TINY


def _short_supports(seed: int = 39, cases: int = 40):
    """Seeded short nested supports, m <= 12 and s below 10^6: ints, which earlier
    versions took as one integer ratio (m log10(s) < 280), and real year lengths."""
    rng = random.Random(seed)
    for _ in range(cases):
        m = rng.randint(1, 12)
        top = rng.randint(m + 1, 10**6) if rng.random() < 0.5 else rng.uniform(m + 1.0, 1e6)
        yield (top,) * (m + 1) if rng.random() < 0.5 else tuple(top - i for i in range(m + 1))


@pytest.mark.parametrize("supports", [*NESTED_SUPPORTS, *_short_supports()])
def test_no_match_on_general_nested_supports(supports):
    value = _no_match(lambda n, m: supports, supports[0], len(supports) - 1)
    _within_one_rounding(value, _no_match_fraction(supports))


def _hpreal_walk(supports) -> HPReal:
    """The product factor by factor in HPReal objects, each (s - k)/s rounded in
    doubles and charged 2^-98 a step: the enclosure of earlier versions' walk."""
    prod = hp(1.0)
    for k, s in enumerate(reversed(supports[:-1]), 1):
        prod = prod * (hp(s - k) / s)
    return prod


def _walked_supports(seed: int = 38, cases: int = 60):
    """Seeded nested supports whose integers `_no_match` cuts: integers below and
    above 2^53 (equal or falling by one), and real year lengths below and above 2^53."""
    rng = random.Random(seed)
    for _ in range(cases):
        m = rng.randint(36, 60)  # m log10(s) >= 36 * 8 = 288 digits, past 2 _BITS bits
        kind = rng.randrange(4)
        if kind == 0:
            yield (rng.randint(10**8, 2**53 - 1),) * (m + 1)
        elif kind == 1:
            yield (rng.randint(2**53, 2**80),) * (m + 1)
        elif kind == 2:
            s = rng.randint(2**53, 2**62)
            yield tuple(range(s, s - m - 1, -1))
        else:
            year = rng.uniform(1e7, 2**53) if rng.random() < 0.5 else rng.uniform(2**53, 1e30)
            yield (year,) * (m + 1)


# no wider err than earlier versions' walk, and a value inside its enclosure where its
# factor inputs are exact: integers, and doubles below 2^53, where s - k is exact too
@pytest.mark.parametrize("supports", [*NESTED_SUPPORTS, *_walked_supports()])
def test_no_match_walk_keeps_the_hpreal_bits_and_narrows_err(supports):
    m = len(supports) - 1
    value, before = _no_match(lambda n, m: supports, supports[0], m), _hpreal_walk(supports)
    if isinstance(supports[0], int) or supports[0] < 2**53:
        assert abs(value.to_fraction() - before.to_fraction()) <= before.err
    assert value.err <= before.err
    _within_one_rounding(value, _no_match_fraction(supports))


def test_long_product_err_is_one_rounding_and_its_cuts():
    # 3000 factors of at most 20 bits, and a cut only after _BITS bits of growth: num and
    # den are cut at most 2 * 3000 * 20 / _BITS = 750 times
    value = collision_sf(10**6, 3000)
    assert value.err <= float(value) * (2.0**-105 + 750 * 2.0**(3 - _BITS))
    assert value.err < _hpreal_walk((10**6,) * 3001).err / 1000


# every (n, m) at the foot of both laws up to n = 420, where pass_cdf reaches 1/420!;
# the oracles in closed form, as in _SURVIVAL_400
def test_no_match_within_one_rounding_at_the_foot_of_both_laws():
    for n in range(2, 421):
        for m in range(max(n - 15, 0), n):
            _within_one_rounding(collision_sf(n, m), Fraction(math.perm(n - 1, m), n ** m))
            _within_one_rounding(pass_cdf(n, m), Fraction((n - m) ** m * math.factorial(n - m),
                                                          math.factorial(n)))


@pytest.mark.parametrize("call", [
    lambda: collision_sf(10**12, 2 * 10**6),
    lambda: pass_cdf(10**12, 2 * 10**6),
    lambda: relative_error_common(10**12, 2 * 10**6),
    lambda: collision_sf(2**60, 2**30),  # 2^30 supports would take 8 GiB
])
def test_product_forms_refuse_a_walk_past_the_cap(monkeypatch, call):
    def unbuilt(n, m):
        raise AssertionError(f"built {m + 1} supports past the cap")

    monkeypatch.setattr(exact, "birthday_supports", unbuilt)
    monkeypatch.setattr(exact, "inversion_supports", unbuilt)
    with pytest.raises(ResourceBoundError, match=r"m=\d+ factors .* bounded at m <= 1000000"):
        call()


def test_no_match_literal_product_counts_distinct_draws():
    supports = (9, 9, 7, 4, 4, 2)
    distinct = sum(len(set(draw)) == len(supports)
                   for draw in cartesian(*(range(s) for s in supports)))
    assert _no_match_fraction(supports) == Fraction(distinct, math.prod(supports))


def test_pass_cdf_factorial_form_up_to_60():
    for n in range(2, 61):
        for m in range(0, n):
            factorial_form = (
                Fraction(n - m) ** m
                * math.factorial(n - m)
                / Fraction(math.factorial(n))
            )
            assert pass_cdf_fraction(n, m) == factorial_form


@given(st.integers(min_value=2, max_value=120), st.data())
def test_monotone_in_probe_depth(n, data):
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert collision_sf_fraction(n, m) <= collision_sf_fraction(n, m - 1)
    assert pass_cdf_fraction(n, m) <= pass_cdf_fraction(n, m - 1)


def test_problem_size_validation():
    ProblemSize(10, 10)
    with pytest.raises(ValueError):
        ProblemSize(10, 11)
    with pytest.raises(ValueError):
        ProblemSize(0, 0)


# -- series forms -------------------------------------------------------------


def test_collision_series_matches_product():
    series = collision_sf_series(365, 22, depth=12)
    product = collision_sf(365, 22)
    assert abs(float(series) / float(product) - 1.0) < 1e-12


def test_collision_series_shifted_headline():
    assert abs(float(collision_sf_series(358, 22, depth=12)) - 0.4857834) <= 5e-8


def test_series_m_zero():
    assert float(collision_sf_series(123.0, 0, depth=1)) == 1.0
    assert float(pass_cdf_series(123.0, 0, depth=1)) == 1.0


def test_pass_series_matches_product():
    assert abs(float(pass_cdf_series(365, 22, depth=12)) / float(pass_cdf(365, 22)) - 1) < 1e-12
    assert abs(float(pass_cdf_series(50, 5, depth=20)) / float(pass_cdf(50, 5)) - 1) < 1e-14


def test_collision_series_monotone_convergence():
    product = collision_sf_fraction(365, 22)
    gaps = []
    for depth in range(1, 13):
        v = collision_sf_series(365, 22, depth=depth)
        gaps.append(abs(float(v.to_fraction() - product)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_series_accepts_real_year_length():
    # integral shift reproduces the integer product form
    v = collision_sf_series(358.0, 22)
    assert abs(float(v) / float(collision_sf(358, 22)) - 1.0) < 1e-12


def test_series_domain():
    with pytest.raises(ValueError):
        collision_sf_series(20, 25)
    with pytest.raises(ValueError):
        pass_cdf_series(20, 25)
    with pytest.raises(ValueError):
        collision_sf_series(365, 22, depth=0)
    # depth is checked before the empty product at m = 0
    for series in (collision_sf_series, pass_cdf_series):
        for depth in (0, 65):
            with pytest.raises(ValueError, match="depth must be in 1..64"):
                series(10, 0, depth=depth)
    with pytest.raises(ValueError, match="collision log series does not converge within 64"):
        collision_sf_series(22.0000001, 22)


def test_series_auto_depth_stops_before_first_negligible_term():
    # the next term falls below 1e-16 of the summed magnitudes after depth 12 at
    # (365, 22) and after depth 8 at (10^4, 100), for both series; the auto
    # depth's err also covers the dropped tail, an explicit depth's does not
    for series in (collision_sf_series, pass_cdf_series):
        for n, m, depth in ((365, 22, 12), (10**4, 100, 8)):
            auto, fixed = series(n, m), series(n, m, depth=depth)
            assert (auto.hi, auto.lo) == (fixed.hi, fixed.lo)
            assert auto.err > fixed.err


@pytest.mark.parametrize("n, m", [(365, 22), (10**4, 100), (50, 10)])
@pytest.mark.parametrize("series, oracle", [(collision_sf_series, collision_sf_fraction),
                                            (pass_cdf_series, pass_cdf_fraction)])
def test_series_auto_depth_within_err_of_fraction_oracle(series, oracle, n, m):
    # exp of the full log series is the product, so the truncation is error
    value = series(n, m)
    assert abs(value.to_fraction() - oracle(n, m)) <= Fraction(value.err)


# -- sandwich -----------------------------------------------------------------


def test_sandwich_headline():
    lower, upper = sandwich_bounds(365, 22)
    mid = pass_cdf(365, 22)
    assert float(lower) <= float(mid) <= float(upper)
    assert abs(float(mid) - 0.4857848) <= 5e-8


def test_sandwich_collapses_at_m1():
    lower, upper = sandwich_bounds(3, 1)
    assert float(lower) == float(upper) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert float(pass_cdf(3, 1)) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_sandwich_domain():
    with pytest.raises(ValueError):
        sandwich_bounds(365, 0)
    with pytest.raises(ValueError):
        sandwich_bounds(10, 6)  # lower bound degenerate: n-(m-1) < m+1


def test_sandwich_exhaustive_to_300():
    # integer cross-multiplication: A/B <= C/D iff A*D <= C*B
    for n in range(2, 301):
        pass_num = []  # built per m below
        for m in range(1, n):
            if n - (m - 1) < m + 1:
                break
            np_, dp = _pass_int_parts(n, m)
            nl, dl = _collision_int_parts(n - (m - 1), m)
            nu, du = _collision_int_parts(n, m)
            assert nl * dp <= np_ * dl, f"lower bound fails at n={n}, m={m}"
            assert np_ * du <= nu * dp, f"upper bound fails at n={n}, m={m}"


# the sandwich ordering on both sides of m*log10(n) = 280, where the
# products leave the one-ratio path for the factor loop
@settings(deadline=None)
@example(n=365, m=22)
@example(n=10**5, m=600)
@given(n=st.integers(min_value=2, max_value=10**5), m=st.integers(min_value=1, max_value=600))
def test_sandwich_and_common_ratio_within_err_of_fraction(n, m):
    m = min(m, n // 2)
    lower, upper = sandwich_bounds(n, m)
    mid = pass_cdf(n, m)
    lower_f = collision_sf_fraction(n - (m - 1), m)
    upper_f = collision_sf_fraction(n, m)
    mid_f = pass_cdf_fraction(n, m)
    for value, oracle in ((lower, lower_f), (upper, upper_f), (mid, mid_f)):
        assert abs(value.to_fraction() - oracle) <= value.err
    assert lower.to_fraction() - Fraction(lower.err) <= mid_f
    assert mid_f <= upper.to_fraction() + Fraction(upper.err)
    ratio = relative_error_common(n, m).exact_ratio
    assert abs(ratio.to_fraction() - upper_f / mid_f) <= ratio.err


def _collision_int_parts(n, m):
    num = 1
    for k in range(1, m + 1):
        num *= n - k
    return num, n ** m


def _pass_int_parts(n, m):
    num = (n - m) ** m
    den = 1
    for k in range(1, m + 1):
        den *= n - m + k
    return num, den


# -- cross-estimation ---------------------------------------------------------


def test_relative_error_common_headline():
    report = relative_error_common(365, 22)
    expected_ratio = 0.4927028 / 0.4857848
    assert float(report.exact_ratio) == pytest.approx(expected_ratio, abs=3e-7)
    assert report.relative_error == pytest.approx(expected_ratio - 1.0, abs=3e-7)
    assert report.relative_error == pytest.approx(float(report.exact_ratio) - 1.0, abs=1e-15)


def test_relative_error_common_m1():
    assert relative_error_common(100, 1).asymptotic_formula_value == 0.0


def test_relative_error_common_formula_quality():
    report = relative_error_common(2000, 40)
    assert report.relative_error == pytest.approx(report.asymptotic_formula_value, rel=0.25)


def test_relative_error_remainder_shrinks():
    # at m ~ sqrt(n) the formula's relative misfit decays like 1/n
    devs = []
    for n in (400, 1600):
        m = round(math.sqrt(n))
        r = relative_error_common(n, m)
        devs.append(abs(r.relative_error - r.asymptotic_formula_value)
                    / r.asymptotic_formula_value)
    assert devs[1] < devs[0]


def test_relative_error_shifted_headline():
    report = relative_error_shifted(365, 22)
    # ratio of the printed 7-digit values: 0.4857834/0.4857848 - 1
    assert report.relative_error == pytest.approx(-2.88e-6, abs=3e-7)
    assert report.asymptotic_formula_value == pytest.approx(-2.816e-6, rel=1e-3)


def test_relative_error_shifted_within_err_of_fraction_oracle():
    # the shifted year length is the double n - (m-1)/3; (4, 3) needs more
    # log-series terms than exist, and (365, 22) lies beyond a log-series err
    # past 2^53 the doubles n' - k round, so the walk takes them in integers
    for n, m in ((4, 3), (365, 22), (10**17, 30), (9007199255153169, 54)):
        shifted = Fraction(n - (m - 1) / 3.0)
        product = Fraction(1)
        for k in range(1, m + 1):
            product *= 1 - k / shifted
        ratio = relative_error_shifted(n, m).exact_ratio
        assert abs(ratio.to_fraction() - product / pass_cdf_fraction(n, m)) <= Fraction(ratio.err)


def test_relative_error_shifted_m1():
    assert relative_error_shifted(100, 1).asymptotic_formula_value == 0.0


def test_relative_error_shifted_formula_quality():
    report = relative_error_shifted(1000, 16)  # shift (m-1)/3 = 5 integral
    assert report.relative_error == pytest.approx(report.asymptotic_formula_value, rel=0.25)


def test_optimal_shift_cases():
    assert optimal_shift(365, 22) == (7, 7.0)
    assert optimal_shift(100, 1) == (0, 0.0)
    brute, asym = optimal_shift(1000, 10)
    assert abs(brute - 3) <= 1
    assert asym == 3.0


def test_optimal_shift_matches_fraction_argmin_at_large_n():
    # the deviations here fall far below a float's ulp of 1 (8.1e-39 at the argmin,
    # 8.2e-20 next), so a float ratio minus 1 loses the argmin
    n, m = 10**11, 40
    target = pass_cdf_fraction(n, m)
    best = min(range(m), key=lambda k: abs(collision_sf_fraction(n - k, m) / target - 1))
    assert best == 13
    assert optimal_shift(n, m)[0] == best


def test_optimal_shift_bounds_the_factors_its_shifts_walk(monkeypatch):
    # every shift k with n - k > m takes m factors: all 40 shifts, 1600 factors in all
    n, m = 10**7 + 5, 40
    shift = optimal_shift(n, m)
    monkeypatch.setattr(exact, "_WALK_LIMIT", 1600)
    assert optimal_shift(n, m) == shift
    monkeypatch.setattr(exact, "_WALK_LIMIT", 1599)
    monkeypatch.setattr(exact, "pass_cdf", None)  # refused before any product
    with pytest.raises(ResourceBoundError, match=r"at least 1600 factors .* 40 shifts"):
        optimal_shift(n, m)


# -- moments of the scaled statistics -----------------------------------------


def test_scaled_pass_moment_tiny():
    # enumeration of the 6 permutations of 3: pass counts {1:x1, 2:x3, 3:x2}
    expected = 5.0 / (6.0 * math.sqrt(3.0))
    assert float(scaled_pass_moment(3, 1)) == pytest.approx(expected, rel=1e-14)


def test_scaled_pass_moment_headline():
    assert float(scaled_pass_moment(10**4, 1)) == pytest.approx(
        1.23670494307038, rel=1e-12
    )
    assert float(scaled_pass_moment(10**4, 2)) == pytest.approx(
        1.950365345384, rel=1e-10
    )


def test_scaled_pass_variance_headline():
    assert float(scaled_pass_variance(10**4)) == pytest.approx(
        0.4209262291695, rel=1e-9
    )


def test_scaled_pass_variance_degenerate():
    assert float(scaled_pass_variance(1)) == 0.0


def test_scaled_pass_moments_against_enumeration():
    # full enumeration oracle for n <= 6: E((n-P)^k) / n^(k/2)
    for n in (2, 3, 4, 5, 6):
        tally = {}
        for p in permutations(range(1, n + 1)):
            q = list(p)
            i = 0
            while q != sorted(q):
                i += 1
                for j in range(n - i):
                    if q[j] > q[j + 1]:
                        q[j], q[j + 1] = q[j + 1], q[j]
            tally[i + 1] = tally.get(i + 1, 0) + 1
        for k in (1, 2, 3):
            expected = sum(
                cnt * (n - passes) ** k for passes, cnt in tally.items()
            ) / math.factorial(n) / n ** (k / 2.0)
            assert float(scaled_pass_moment(n, k)) == pytest.approx(expected, rel=1e-13)


def test_scaled_pass_moment_err_bounds_oracle():
    for n in (5, 17, 40, 60):
        rho = [pass_cdf_fraction(n, m) for m in range(n)] + [Fraction(0)]
        for k in (1, 2):
            # exact rational moment of the deficit d = n - P
            moment = sum(Fraction(d) ** k * (rho[d] - rho[d + 1]) for d in range(n))
            reference = HPReal.from_fraction(moment) / hp(n).sqrt().pow_int(k)
            got = scaled_pass_moment(n, k)
            deviation = abs(float(got - reference))
            assert deviation <= got.err + reference.err
            assert float(got) == pytest.approx(float(reference), rel=1e-12)


def _lattice_moment(kind, n, k):
    """E (sqrt(n) X)^k for X = (n - P)/sqrt(n) or (C - 1)/sqrt(n), exactly."""
    if kind == "pass":  # deficit d in 0..n-1, P{d >= m} = pass_cdf_fraction(n, m)
        sf = [pass_cdf_fraction(n, m) for m in range(n)] + [Fraction(0)]
        values = range(n)
    else:  # j = C - 1 in 1..n, P{j >= v} = collision_sf_fraction(n, v - 1)
        sf = [Fraction(1)] + [collision_sf_fraction(n, m) for m in range(n + 1)]
        values = range(1, n + 1)
    return sum(Fraction(v) ** k * (sf[v] - sf[v + 1]) for v in values)


def _moment_fraction(kind, n, k):
    """E X^k exactly; k even."""
    return _lattice_moment(kind, n, k) / Fraction(n) ** (k // 2)


# at even k the moments are rational, so the Fraction oracle is exact
@settings(deadline=None)
@example(kind="pass", n=1, k=2)
@example(kind="collision", n=1, k=4)
@example(kind="pass", n=150, k=4)
@example(kind="collision", n=150, k=4)
@given(kind=st.sampled_from(("pass", "collision")), n=st.integers(min_value=1, max_value=150),
       k=st.sampled_from((2, 4)))
def test_even_moments_match_fraction_within_err(kind, n, k):
    moment = (scaled_pass_moment if kind == "pass" else scaled_collision_moment)(n, k)
    assert abs(moment.to_fraction() - _moment_fraction(kind, n, k)) <= moment.err


@pytest.mark.parametrize("kind", ("pass", "collision"))
@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("k", range(1, 9))
def test_small_n_moments_within_err(kind, n, k):
    # n = 1: X = 0 (pass) or 1 (collision); n = 2 reaches odd powers of sqrt(2)
    moment = (scaled_pass_moment if kind == "pass" else scaled_collision_moment)(n, k)
    lattice = _lattice_moment(kind, n, k)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(lattice.numerator) / lattice.denominator / Decimal(n).sqrt() ** k
        got = Decimal(moment.hi) + Decimal(moment.lo)
        assert abs(got - exact) <= Decimal(moment.err) + Decimal(10) ** -55


# -- survival kernel ------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@example(kind="pass", n=1)
@example(kind="pass", n=200)
@example(kind="collision", n=200)
@given(kind=st.sampled_from(("pass", "collision")), n=st.integers(min_value=1, max_value=200))
def test_survival_terms_within_err_of_fraction(kind, n):
    sequence, oracle = ((pass_survival_sequence, pass_cdf_fraction) if kind == "pass"
                        else (collision_survival_sequence, collision_sf_fraction))
    values = []
    for m, s in sequence(n):
        assert abs(s.to_fraction() - oracle(n, m)) <= Fraction(s.err)
        values.append(s.hi)
    # the walk stops at m = n - 1 or after its first term below the floor
    assert 1 <= len(values) <= n and min(values[:-1], default=1.0) >= SURVIVAL_FLOOR
    assert len(values) == n or values[-1] < SURVIVAL_FLOOR


# sha256 of repr([(m, hi, lo, err), ...]) over each whole sequence, first 16 hex digits:
# the product forms share the survival loop, and its bits must not move
SEQUENCE_DIGESTS = [
    (pass_survival_sequence, 10**4, 1298, "6ad8a757fe898d98"),
    (collision_survival_sequence, 10**4, 1327, "144125c6b8dab098"),
    (collision_survival_sequence, 365 - 21 / 3.0, 225, "5c877262bedb111d"),
    (collision_survival_sequence, 10**4 + 0.5, 1327, "be041f831d390692"),
]


@pytest.mark.parametrize("sequence, n, terms, digest", SEQUENCE_DIGESTS)
def test_survival_sequences_keep_their_bits(sequence, n, terms, digest):
    walked = [(m, s.hi, s.lo, s.err) for m, s in sequence(n)]
    assert len(walked) == terms
    assert hashlib.sha256(repr(walked).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("sequence", [pass_survival_sequence, collision_survival_sequence])
def test_survival_walk_length_bound(monkeypatch, sequence):
    # S_m <= exp(-m(m+1)/2n) puts the walk within sqrt(2n ln 10^40) + 1 factors; with the
    # cap at 2000 factors that allows n <= 1999^2 / (2 ln 10^40) = 21693.4
    monkeypatch.setattr(exact, "_WALK_LIMIT", 2000)
    *_, (m, last) = sequence(21693)
    assert m <= 2000 and last.hi < SURVIVAL_FLOOR
    monkeypatch.setattr(exact, "_dd_mul", None)  # refused before any factor
    with pytest.raises(ResourceBoundError, match=r"n=21694 .* bounded at 2000 factors, n <= 21693"):
        next(sequence(21694))


@pytest.mark.parametrize("call", [
    lambda: next(pass_survival_sequence(10**12)),
    lambda: next(collision_survival_sequence(2**53 + 0.5)),
    lambda: scaled_pass_moment(2**53, 1),
    lambda: scaled_collision_moment(10**12, 2),
    lambda: scaled_pass_charfn_exact(2**60, 0.5),
])
def test_survival_walks_past_the_cap_are_refused(monkeypatch, call):
    monkeypatch.setattr(exact, "_dd_mul", None)  # refused before any factor
    with pytest.raises(ResourceBoundError, match=f"bounded at {_WALK_LIMIT} factors"):
        call()


@settings(deadline=None)
@example(year=365 - 21 / 3.0)
@example(year=150.25)
@given(year=st.floats(min_value=1.0, max_value=400.0))
def test_collision_terms_at_real_year_length_within_err(year):
    exact, y = Fraction(1), Fraction(year)
    for m, s in collision_survival_sequence(year):
        assert abs(s.to_fraction() - exact) <= Fraction(s.err)
        exact *= (y - m - 1) / y


# wherever the log series converges: within err of the product, or refused
# when 64 orders do not reach the stopping rule
@settings(deadline=None)
@example(kind="collision", n=365, share=0.06)
@example(kind="pass", n=2.5, share=0.0)
@given(kind=st.sampled_from(("pass", "collision")),
       n=st.integers(min_value=2, max_value=10**4) | st.floats(min_value=2.0, max_value=1e4),
       share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_series_auto_depth_within_err_of_product(kind, n, share):
    # m < base, the series' base: n - m (pass) or n (collision)
    top = math.ceil(n / 2 if kind == "pass" else n)
    m = min(int(share * top), 300)
    y = Fraction(n)
    base = y - m if kind == "pass" else y
    exact = Fraction(1)
    for k in range(1, m + 1):
        exact *= base / (base + k) if kind == "pass" else (y - k) / y
    try:
        value = (pass_cdf_series if kind == "pass" else collision_sf_series)(n, m)
    except ValueError as exc:  # 64 orders miss the stopping rule only past m/base = 1/2
        assert "does not converge" in str(exc) and m / base > Fraction(1, 2)
        return
    assert abs(value.to_fraction() - exact) <= Fraction(value.err)


def test_scaled_collision_moment_degenerate():
    assert float(scaled_collision_moment(1, 1)) == pytest.approx(1.0, rel=1e-15)


def test_scaled_collision_moment_expected_collisions():
    # E(C_365) = sqrt(365) E(Z_365) + 1 ~ 24.6166
    z1 = float(scaled_collision_moment(365, 1))
    expected_c = math.sqrt(365) * z1 + 1.0
    # independent float oracle: direct summation of survival probabilities
    s, sf = 0.0, 1.0
    for j in range(1, 367):
        s += sf
        sf *= (365 - j) / 365 if j <= 365 else 0.0
    assert expected_c == pytest.approx(1.0 + s, abs=1e-3)
    assert expected_c == pytest.approx(24.6166, abs=1e-3)


def test_scaled_collision_moment_rayleigh_gap_halves():
    target = math.sqrt(math.pi / 2.0)
    gap1 = abs(float(scaled_collision_moment(10**4, 1)) - target)
    gap2 = abs(float(scaled_collision_moment(4 * 10**4, 1)) - target)
    assert 1.5 <= gap1 / gap2 <= 2.5


def test_scaled_charfn_exact_basics():
    assert scaled_pass_charfn_exact(100, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    v = scaled_pass_charfn_exact(100, 0.7)
    assert abs(v) <= 1.0 + 1e-12


# -- validation branches, the Abel tail ---------------------------------------


@pytest.mark.parametrize("call", [
    pytest.param(lambda: scaled_pass_charfn_exact(0, 1.0), id="charfn-n0"),
    pytest.param(lambda: relative_error_shifted(10, 0), id="shifted-m0"),
])
def test_exact_refuses_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


# term m of each survival walk at n = 400 as a Fraction; n^(k/2) = 20^k there
_SURVIVAL_400 = {
    "pass": lambda m: Fraction((400 - m) ** m * math.factorial(400 - m), math.factorial(400)),
    "collision": lambda m: Fraction(math.perm(399, m), 400 ** m),
}


@pytest.mark.parametrize("kind, stop", [("pass", 214), ("collision", 239)])
def test_abel_tail_bounds_the_dropped_terms(kind, stop):
    sequence, first = LATTICES[kind]
    *_, (_, before), (m, s) = sequence(400)
    assert m == stop
    for k in range(1, 9):
        tail = sum(((i + first) ** k - (i + first - 1) ** k) * _SURVIVAL_400[kind](i)
                   for i in range(m + 1, 400)) / Fraction(20) ** k
        bound = Fraction(_abel_tail(400, k, m + first, s, before))
        assert tail <= bound <= tail * Fraction(105, 100)


def test_high_moments_at_a_million_carry_no_floor_sized_err():
    # rounding sets these errs (1.7e-22 and 4.3e-25); the dropped tail is below 1e-30
    for moment in (scaled_pass_moment, scaled_collision_moment):
        assert moment(10**6, 8).err < 1e-21
