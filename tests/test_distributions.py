"""Reference laws, erfi, and the imaginary-argument normal CDF."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collisort.distributions import (
    ERFI_MAX_ARG,
    ExponentialLaw,
    PoissonLaw,
    RayleighLaw,
    erfi,
    exponential_sf,
    normal_cdf_imag,
    poisson_pmf,
    poisson_pmf_vector,
    rayleigh_charfn,
    rayleigh_moment,
    rayleigh_sf,
)
from collisort.quadrature import adaptive_quad

from oracles import PI_FRAC, erfi_series_frac


# -- Poisson ----------------------------------------------------------------


def test_poisson_zero_rate():
    law = PoissonLaw(0.0)
    assert poisson_pmf(law, 0) == 1.0
    assert poisson_pmf(law, 3) == 0.0


def test_poisson_unit_rate_at_zero():
    assert poisson_pmf(PoissonLaw(1.0), 0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_poisson_direct_product_oracle():
    # rational+exp form: 2.5^3 e^-2.5 / 6
    expected = Fraction(5, 2) ** 3 / 6
    assert poisson_pmf(PoissonLaw(2.5), 3) == pytest.approx(
        float(expected) * math.exp(-2.5), rel=1e-14
    )


def test_poisson_log_space_continuity():
    law = PoissonLaw(7.0)
    direct = 7.0 ** 30 * math.exp(-7.0) / math.factorial(30)
    assert poisson_pmf(law, 30) == pytest.approx(direct, rel=1e-13)
    assert poisson_pmf(law, 31) == pytest.approx(direct * 7.0 / 31.0, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 5.0, 20.0])
def test_poisson_sums_to_one(lam):
    law = PoissonLaw(lam)
    kmax = int(lam + 20 * math.sqrt(lam) + 20)
    total = sum(poisson_pmf(law, k) for k in range(kmax + 1))
    assert abs(total - 1.0) < 1e-12


def test_poisson_vector_matches_pointwise():
    law = PoissonLaw(3.5)
    vec = poisson_pmf_vector(law, 40)
    for k in (0, 1, 7, 31, 40):
        assert vec[k] == pytest.approx(poisson_pmf(law, k), rel=1e-12)


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonLaw(-1.0)
    with pytest.raises(ValueError):
        poisson_pmf(PoissonLaw(1.0), -1)


# -- exponential / Rayleigh ---------------------------------------------------


def test_exponential_examples():
    law = ExponentialLaw(1.0)
    assert exponential_sf(law, 0.0) == 1.0
    assert exponential_sf(law, math.log(2.0)) == pytest.approx(0.5, rel=1e-15)
    # exp-series oracle
    ref = sum((-0.6) ** k / math.factorial(k) for k in range(30))
    assert exponential_sf(ExponentialLaw(3.0), 0.2) == pytest.approx(ref, rel=1e-14)
    with pytest.raises(ValueError):
        exponential_sf(law, -0.1)


def test_rayleigh_examples():
    law = RayleighLaw(1.0)
    assert rayleigh_sf(law, 0.0) == 1.0
    assert rayleigh_sf(law, math.sqrt(2.0 * math.log(2.0))) == pytest.approx(0.5, abs=1e-12)
    w = 1.2533
    assert rayleigh_sf(law, w) == pytest.approx(math.exp(-w * w / 2.0), rel=1e-15)
    with pytest.raises(ValueError):
        rayleigh_sf(law, -0.5)


@given(st.floats(min_value=0.0, max_value=30.0))
def test_rayleigh_exponential_identity_bitwise(w):
    # identical evaluation path, so equality is exact
    assert rayleigh_sf(RayleighLaw(1.0), w) == exponential_sf(ExponentialLaw(1.0), w * w / 2.0)


def test_rayleigh_moments_small():
    assert rayleigh_moment(0) == 1.0
    assert rayleigh_moment(1) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
    assert rayleigh_moment(2) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("k", range(9))
def test_rayleigh_moment_quadrature(k):
    integral = adaptive_quad(
        lambda w: w ** k * w * math.exp(-w * w / 2.0), 0.0, 40.0, abs_tol=1e-13
    )
    assert rayleigh_moment(k) == pytest.approx(integral, rel=1e-10)


# -- erfi ---------------------------------------------------------------------


def test_erfi_zero_and_symmetry():
    assert erfi(0.0) == 0.0
    for a in (0.3, 1.7, 5.0, 11.5):
        assert erfi(-a) == -erfi(a)


def test_erfi_taylor_oracle():
    # >= 50-term series summed exactly in rationals, then scaled by 2/sqrt(pi)
    series = erfi_series_frac(Fraction(1), terms=60)
    two_over_sqrt_pi = 2.0 / math.sqrt(float(PI_FRAC))
    assert erfi(1.0) == pytest.approx(float(series) * two_over_sqrt_pi, rel=1e-14)


def test_erfi_quadrature_oracle():
    for x in (0.5, 2.0, 3.5, 6.0):
        integral = adaptive_quad(lambda t: math.exp(t * t), 0.0, x, abs_tol=1e-13)
        assert erfi(x) == pytest.approx(2.0 / math.sqrt(math.pi) * integral, rel=1e-11)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0])
def test_erfi_derivative_relation(x):
    h = 1e-5
    derivative = (erfi(x + h) - erfi(x - h)) / (2.0 * h)
    assert derivative == pytest.approx(2.0 / math.sqrt(math.pi) * math.exp(x * x), rel=1e-6)


def test_erfi_range_guard():
    with pytest.raises(ValueError):
        erfi(ERFI_MAX_ARG + 0.5)
    with pytest.raises(ValueError):
        erfi(math.nan)


# -- normal CDF at imaginary argument ----------------------------------------


def test_normal_cdf_imag_origin():
    assert normal_cdf_imag(0.0) == complex(0.5, 0.0)


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_normal_cdf_imag_conjugate_symmetry(t):
    assert normal_cdf_imag(-t) == normal_cdf_imag(t).conjugate()


def test_normal_cdf_imag_links_to_erfi():
    t = 1.0
    assert normal_cdf_imag(t) == complex(0.5, 0.5 * erfi(t / math.sqrt(2.0)))


def test_rayleigh_charfn_against_quadrature():
    # E exp(itW) for the standard Rayleigh density w exp(-w^2/2)
    for t in (0.0, 0.5, 1.0, 2.0):
        re = adaptive_quad(
            lambda w: math.cos(t * w) * w * math.exp(-w * w / 2.0), 0.0, 40.0, abs_tol=1e-13
        )
        im = adaptive_quad(
            lambda w: math.sin(t * w) * w * math.exp(-w * w / 2.0), 0.0, 40.0, abs_tol=1e-13
        )
        assert cmath.isclose(rayleigh_charfn(t), complex(re, im), rel_tol=1e-10)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ExponentialLaw(0), id="exponential-rate-0"),
    pytest.param(lambda: RayleighLaw(0), id="rayleigh-scale-0"),
    pytest.param(lambda: poisson_pmf_vector(PoissonLaw(1.0), -1), id="pmf-vector-kmax-1"),
    pytest.param(lambda: rayleigh_moment(-1), id="rayleigh-moment-1"),
])
def test_distributions_refuse_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_poisson_pmf_vector_sums_to_one_past_exp_underflow():
    # exp(-915) underflows, so a recurrence started from it gives all zeros
    assert abs(sum(poisson_pmf_vector(PoissonLaw(915.0), 2000)) - 1.0) <= 1e-12


def test_poisson_pmf_stays_finite_at_a_huge_rate():
    assert math.isfinite(poisson_pmf(PoissonLaw(1e11), 30))


def test_poisson_pmf_vector_is_the_scalar_rule():
    for lam in (0.0, 0.505, 30.0, 699.0, 700.0, 992.5):
        law = PoissonLaw(lam)
        assert poisson_pmf_vector(law, 60) == [poisson_pmf(law, k) for k in range(61)]
