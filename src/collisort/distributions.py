"""Closed-form reference laws: Poisson, exponential, Rayleigh.

Also provides erfi and the standard normal CDF evaluated at purely
imaginary arguments, which the characteristic-function formulas need.
The Rayleigh scale parameter is named ``sigma``; note it is a scale, not
a rate like the exponential law's ``lam``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .hpreal import hp

SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

ERFI_MAX_ARG = 12.0


class PoissonLaw(namedtuple("PoissonLaw", "lam")):
    __slots__ = ()

    def __new__(cls, lam: float):
        if not lam >= 0.0:
            raise ValueError(f"Poisson rate must be >= 0, got {lam}")
        return super().__new__(cls, lam)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


class ExponentialLaw(namedtuple("ExponentialLaw", "lam")):
    __slots__ = ()

    def __new__(cls, lam: float):
        if not lam > 0.0:
            raise ValueError(f"exponential rate must be > 0, got {lam}")
        return super().__new__(cls, lam)

    _make = classmethod(lambda cls, values: cls(*values))


class RayleighLaw(namedtuple("RayleighLaw", "sigma")):
    __slots__ = ()

    def __new__(cls, sigma: float):
        if not sigma > 0.0:
            raise ValueError(f"Rayleigh scale must be > 0, got {sigma}")
        return super().__new__(cls, sigma)

    _make = classmethod(lambda cls, values: cls(*values))


def poisson_pmf(law: PoissonLaw, k: int) -> float:
    """P{W = k} for W ~ Poisson(lam).

    Direct product where it can neither under- nor overflow (k <= 30 and
    lam < 700, so exp(-lam) and lam^k stay normal); log space elsewhere.
    """
    if k < 0:
        raise ValueError("Poisson support is the nonnegative integers")
    lam = law.lam
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    if k <= 30 and lam < 700.0:
        return lam ** k * math.exp(-lam) / math.factorial(k)
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_pmf_vector(law: PoissonLaw, kmax: int) -> list[float]:
    """PMF values for k = 0..kmax."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return [poisson_pmf(law, k) for k in range(kmax + 1)]


def exponential_sf(law: ExponentialLaw, w: float) -> float:
    """P{W > w} = exp(-lam * w)."""
    if w < 0:
        raise ValueError("exponential survival needs w >= 0")
    return math.exp(-law.lam * w)


def rayleigh_sf(law: RayleighLaw, w: float) -> float:
    """P{W > w} = exp(-w^2 / (2 sigma^2)).

    Delegates to the exponential survival with rate 1/sigma^2 at w^2/2,
    so rayleigh_sf(Ray(1), w) == exponential_sf(Exp(1), w^2/2) bit for
    bit.
    """
    if w < 0:
        raise ValueError("Rayleigh survival needs w >= 0")
    rate = 1.0 / (law.sigma * law.sigma)
    return exponential_sf(ExponentialLaw(rate), w * w / 2.0)


def rayleigh_moment(k: int) -> float:
    """k-th moment of the standard Rayleigh law: sqrt(2)^k Gamma(k/2 + 1)."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return SQRT2 ** k * math.gamma(k / 2.0 + 1.0)


def erfi(x: float) -> float:
    """Imaginary error function (2/sqrt(pi)) * integral_0^x exp(t^2) dt.

    Taylor series in double-double over the whole supported range; every
    term has the sign of x, so there is no cancellation and the only
    limit is overflow of exp(x^2), guarded at |x| = 12.
    """
    if not abs(x) <= ERFI_MAX_ARG:
        raise ValueError(f"erfi supported for |x| <= {ERFI_MAX_ARG}, got {x}")
    if x == 0.0:
        return 0.0
    if x < 0.0:
        return -erfi(-x)
    xx = hp(x) * x
    term = hp(x)
    total = hp(x)
    k = 1
    while True:
        # term_k = x^(2k+1) / k!(2k+1); keep the running x^(2k+1)/k! part
        term = term * xx / k
        contrib = term / (2 * k + 1)
        total = total + contrib
        if abs(contrib.hi) <= 1e-34 * abs(total.hi):
            break
        k += 1
        if k > 400:  # unreachable within the guarded range
            raise RuntimeError("erfi series failed to converge")
    return float(total * _TWO_OVER_SQRT_PI)


def normal_cdf_imag(t: float) -> complex:
    """Standard normal CDF at the purely imaginary point i*t.

    Phi(i t) = (1 + i erfi(t / sqrt 2)) / 2.
    """
    return complex(0.5, 0.5 * erfi(t / SQRT2))


def rayleigh_charfn_core(t: float) -> complex:
    """sqrt(2 pi) exp(-t^2/2) * (i t) * Phi(i t), the Rayleigh charfn less 1."""
    return math.sqrt(2.0 * math.pi) * math.exp(-t * t / 2.0) * complex(0.0, t) * normal_cdf_imag(t)


def rayleigh_charfn(t: float) -> complex:
    """Characteristic function of the standard Rayleigh law.

    sqrt(2 pi) exp(-t^2/2) * (i t) * Phi(i t) + 1.
    """
    return rayleigh_charfn_core(t) + 1.0
