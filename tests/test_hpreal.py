"""Double-double arithmetic against exact rational oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisort.hpreal import LN2, PI, HPReal, hp

from oracles import LN2_FRAC, PI_FRAC, exp_frac, ln_frac

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
nonzero_floats = finite_floats.filter(lambda x: abs(x) > 1e-12)


def test_constants():
    assert abs(LN2.to_fraction() - LN2_FRAC) < Fraction(1, 10**31)
    assert abs(PI.to_fraction() - PI_FRAC) < Fraction(1, 10**31)


@given(finite_floats, finite_floats)
def test_add_matches_fraction(a, b):
    r = hp(a) + hp(b)
    exact = Fraction(a) + Fraction(b)
    assert abs(r.to_fraction() - exact) <= max(r.err, 1e-300)


@given(finite_floats, finite_floats)
def test_mul_matches_fraction(a, b):
    r = hp(a) * hp(b)
    exact = Fraction(a) * Fraction(b)
    assert abs(r.to_fraction() - exact) <= max(r.err, abs(float(exact)) * 1e-30 + 1e-300)


@given(finite_floats, nonzero_floats)
def test_div_matches_fraction(a, b):
    r = hp(a) / hp(b)
    exact = Fraction(a) / Fraction(b)
    assert abs(r.to_fraction() - exact) <= max(r.err, abs(float(exact)) * 1e-30 + 1e-300)


@given(st.integers(min_value=0, max_value=40), st.floats(min_value=0.1, max_value=3.0))
def test_pow_int(k, base):
    r = hp(base).pow_int(k)
    exact = Fraction(base) ** k
    assert abs(r.to_fraction() - exact) <= max(r.err, abs(float(exact)) * 1e-29)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-20.0, max_value=20.0))
def test_exp_matches_series(a):
    r = hp(a).exp()
    # reduce through exact squaring so the rational series stays in range
    halvings = 0
    arg = Fraction(a)
    while abs(arg) >= 1:
        arg /= 2
        halvings += 1
    ref = exp_frac(arg, terms=45)
    for _ in range(halvings):
        ref *= ref
    assert abs(r.to_fraction() - ref) <= abs(float(ref)) * 1e-29 + r.err


@settings(max_examples=40)
@given(st.floats(min_value=1e-6, max_value=1e12))
def test_log_inverts_exp(x):
    r = hp(x).log()
    ref = ln_frac(Fraction(x))
    assert abs(r.to_fraction() - ref) <= max(r.err, 1e-29 * (1 + abs(float(ref))))


@given(st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e12)))
def test_sqrt(x):
    # double-double arithmetic does not track gradual underflow, so stay
    # out of the subnormal range (all package quantities are >= 1e-40)
    r = hp(x).sqrt()
    back = r * r
    assert abs(back.to_fraction() - Fraction(x)) <= max(back.err, x * 1e-29)


def test_sqrt_negative_raises():
    with pytest.raises(ValueError):
        hp(-1.0).sqrt()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        hp(1.0) / hp(0.0)


def test_big_int_roundtrip():
    n = math.factorial(170)
    h = HPReal.from_int(n)
    assert abs(h.to_fraction() - n) <= h.err


def test_fraction_roundtrip():
    f = Fraction(22, 7) ** 9
    h = HPReal.from_fraction(f)
    assert abs(h.to_fraction() - f) <= max(h.err, abs(float(f)) * 1e-31)


def test_err_monotone_growth():
    a = hp(1) / 3
    b = a * a
    c = b + a
    assert a.err > 0
    assert b.err >= a.err * 0.1  # propagated, not dropped
    assert c.err >= b.err


@settings(deadline=None)
@given(finite_floats, nonzero_floats)
def test_reflected_ops_and_abs_match_fraction(a, b):
    diff = a - hp(b)
    assert abs(diff.to_fraction() - (Fraction(a) - Fraction(b))) <= max(diff.err, 1e-300)
    quot = a / hp(b)
    assert abs(quot.to_fraction() - Fraction(a) / Fraction(b)) <= max(quot.err, 1e-300)
    mag = (hp(a) / b).abs()
    assert abs(mag.to_fraction() - abs(Fraction(a) / Fraction(b))) <= max(mag.err, 1e-300)


@settings(deadline=None)
@given(finite_floats, finite_floats, nonzero_floats)
def test_greater_than_matches_fraction_beyond_err(a, b, c):
    x, y = hp(a) / c, hp(b) / c
    gap = (Fraction(a) - Fraction(b)) / Fraction(c)
    if abs(gap) > Fraction(x.err + y.err):
        assert (x > y) == (gap > 0)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.1, max_value=3.0))
def test_pow_int_negative_matches_fraction(k, base):
    r = hp(base).pow_int(-k)
    assert abs(r.to_fraction() - Fraction(base) ** -k) <= r.err


@settings(deadline=None)
@given(finite_floats, finite_floats)
def test_equal_values_hash_equal(a, b):
    x, y = hp(a) + hp(b), hp(b) + hp(a)
    assert x == y and hash(x) == hash(y)
    wider = HPReal(x.hi, x.lo, x.err + 1.0)  # comparisons and hash ignore err
    assert wider == x and hash(wider) == hash(x)
    assert hp(a) == a and hash(hp(a)) == hash(a)


def test_comparisons():
    assert hp(1) / 3 < hp(1) / 2
    assert hp(2) >= hp(2)
    assert (hp(1) / 3) * 3 == hp(1)  # exact in double-double for this case


def test_decimal_string_digits():
    s = (hp(1) / 3).decimal_string(25)
    assert s.startswith("0.3333333333333333333333333")


def test_int_beyond_double_range_is_domain_error():
    for value in (10**400, -(10**400), 2**1024, Fraction(10**400), Fraction(-(10**400), 3)):
        with pytest.raises(ValueError, match="outside the HPReal range"):
            hp(value)
    assert float(hp(2**1023)) == 2.0**1023


def test_exp_overflow_guard():
    with pytest.raises(OverflowError):
        hp(800.0).exp()
    assert float(hp(-800.0).exp()) == 0.0


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: hp(-1).log(), ValueError, id="log-negative"),
    pytest.param(lambda: hp("x"), TypeError, id="from-str"),
])
def test_hpreal_refuses_bad_arguments(call, error):
    with pytest.raises(error):
        call()
