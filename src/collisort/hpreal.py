"""Double-double arithmetic with a tracked error bound.

An HPReal is the unevaluated sum hi + lo of two doubles (~31 significant
digits) together with ``err``, an absolute bound on the distance between
hi + lo and the intended real value.  ``err`` only grows under arithmetic,
so any HPReal result carries a certificate of its own accuracy.

Floats and ints fed into the arithmetic are treated as exact inputs.
Near the bottom of the double exponent range the lo component (and
eventually hi) underflows; err absorbs those losses, so values below
~1e-308 come back as 0 with an err that still bounds the truth.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant

# Relative rounding bound for one renormalized double-double operation.
# True bound is ~2**-104; keep slack for the multi-step div/exp/log kernels.
_EPS = 2.0 ** -98

# products/quotients that land under the normal-double floor lose all
# precision; the true magnitude is then provably below this, which goes
# into err so the bound stays honest through underflow
_UNDERFLOW_FLOOR = 4.5e-308

_TINY = 5e-321  # absolute allowance per operation for subnormal roundings


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # assumes |a| >= |b|
    s = a + b
    return s, b - (s - a)


# double-double operations on (hi, lo) pairs, shared by HPReal's operators and
# the survival kernel of `exact`; bounds from Joldes, Muller and Popescu (2017)


def _dd_add(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    # AccurateDWPlusDW, relative error below 3u^2 + 13u^3 (u = 2^-53), written out
    s = ahi + bhi
    bb = s - ahi
    e = (ahi - (s - bb)) + (bhi - bb)
    t = alo + blo
    bb = t - alo
    f = (alo - (t - bb)) + (blo - bb)
    e += t
    hi = s + e
    e = (e - (hi - s)) + f
    s = hi + e
    return s, e - (s - hi)


def _dd_mul(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    # DWTimesDW1, relative error below 7u^2, written out: Dekker's exact
    # product of ahi * bhi, then a quick two-sum
    p = ahi * bhi
    c = _SPLITTER * ahi
    a1 = c - (c - ahi)
    a2 = ahi - a1
    c = _SPLITTER * bhi
    b1 = c - (c - bhi)
    b2 = bhi - b1
    e = (((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2) + (ahi * blo + alo * bhi)
    s = p + e
    return s, e - (s - p)


def _dd_pow(hi: float, lo: float, k: int) -> tuple[float, float]:
    """(hi, lo)^k, k >= 1, by HPReal.pow_int's products less the exact 1.0 * x.
    Squarings are _dd_mul's with one split: Dekker's steps and doubling are
    exact, so 2*a1*a2 and 2*(hi*lo) give its bits."""
    rhi = None
    while True:
        if k & 1:
            rhi, rlo = (hi, lo) if rhi is None else _dd_mul(rhi, rlo, hi, lo)
        k >>= 1
        if not k:
            return rhi, rlo
        p = hi * hi
        c = _SPLITTER * hi
        a1 = c - (c - hi)
        a2 = hi - a1
        e = ((a1 * a1 - p) + 2.0 * a1 * a2 + a2 * a2) + 2.0 * (hi * lo)
        hi = p + e
        lo = e - (hi - p)


def _dd_div(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    """a / b in three quotient digits, remainders stored as an HPReal stores
    a sum.  For doubles a, b both remainders are exact (that of a rounded
    quotient is a double): relative error u^2 (1 + 3u), below 2u^2."""
    q1 = ahi / bhi
    rhi, rlo = _remainder(ahi, alo, bhi, blo, q1)
    q2 = (rhi + rlo) / bhi
    rhi, rlo = _remainder(rhi, rlo, bhi, blo, q2)
    q3 = (rhi + rlo) / bhi
    hi, lo = _quick_two_sum(q1, q2)
    return _quick_two_sum(hi, lo + q3)


def _remainder(ahi: float, alo: float, bhi: float, blo: float, q: float) -> tuple[float, float]:
    phi, plo = _dd_mul(bhi, blo, q, 0.0)
    hi, lo = _dd_add(ahi, alo, -phi, -plo)
    return (hi, 0.0) if lo == 0.0 else _two_sum(hi, lo)


_OUT_OF_RANGE = ("is outside the HPReal range: |value| must be at most "
                 f"{sys.float_info.max:.6g}, the largest double")


class HPReal:
    """hi + lo double-double value with absolute error bound ``err``."""

    __slots__ = ("hi", "lo", "err")

    def __init__(self, hi: float, lo: float = 0.0, err: float = 0.0):
        if lo == 0.0:
            self.hi = float(hi)
            self.lo = 0.0
        else:
            s, e = _two_sum(float(hi), float(lo))
            self.hi = s
            self.lo = e
        self.err = float(err)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(value: int) -> "HPReal":
        if -9007199254740992 <= value <= 9007199254740992:  # |v| <= 2^53: exact
            return HPReal(float(value))
        try:
            hi = float(value)
        except OverflowError:
            raise ValueError(f"integer of {value.bit_length()} bits {_OUT_OF_RANGE}") from None
        lo = float(value - int(hi))
        rem = value - int(hi) - int(lo)
        return HPReal(hi, lo, abs(float(rem)) * (1.0 + 1e-15))

    @staticmethod
    def from_fraction(value: Fraction) -> "HPReal":
        try:
            hi = float(value)
        except OverflowError:
            bits = value.numerator.bit_length() - value.denominator.bit_length()
            raise ValueError(f"fraction of about {bits} bits {_OUT_OF_RANGE}") from None
        r = value - Fraction(hi)
        lo = float(r)
        rem = r - Fraction(lo)
        err = abs(float(rem)) * (1.0 + 1e-15) if rem else 0.0
        return HPReal(hi, lo, err)

    # -- conversions --------------------------------------------------

    def __float__(self) -> float:
        return self.hi + self.lo

    def to_fraction(self) -> Fraction:
        return Fraction(self.hi) + Fraction(self.lo)

    def decimal_string(self, digits: int = 25) -> str:
        """Round hi + lo to ``digits`` significant decimal digits."""
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = digits + 15
            d = Decimal(self.hi) + Decimal(self.lo)
            ctx.prec = digits
            return str(+d)

    def __repr__(self) -> str:
        return f"HPReal({self.decimal_string()}, err={self.err:.3e})"

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "HPReal":
        if isinstance(other, HPReal):
            return other
        if isinstance(other, int):
            return HPReal.from_int(other)
        if isinstance(other, float):
            return HPReal(other)
        if isinstance(other, Fraction):
            return HPReal.from_fraction(other)
        if hasattr(type(other), "__index__"):  # any other integer type, numpy's too
            return HPReal.from_int(operator.index(other))
        return NotImplemented

    def __add__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        hi, lo = _dd_add(self.hi, self.lo, o.hi, o.lo)
        err = self.err + o.err + _EPS * abs(hi) + _TINY
        return HPReal(hi, lo, err)

    __radd__ = __add__

    def __neg__(self) -> "HPReal":
        return HPReal(-self.hi, -self.lo, self.err)

    def __sub__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other) -> "HPReal":
        return (-self).__add__(other)

    def __mul__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        hi, lo = _dd_mul(self.hi, self.lo, o.hi, o.lo)
        a = abs(self.hi) + abs(self.lo)
        b = abs(o.hi) + abs(o.lo)
        err = self.err * b + o.err * a + self.err * o.err + _EPS * abs(hi) + _TINY
        if abs(hi) < _UNDERFLOW_FLOOR and a != 0.0 and b != 0.0:
            err += _UNDERFLOW_FLOOR
        return HPReal(hi, lo, err)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.hi == 0.0 and o.lo == 0.0:
            raise ZeroDivisionError("HPReal division by zero")
        hi, lo = _dd_div(self.hi, self.lo, o.hi, o.lo)
        qabs = abs(hi) + abs(lo)
        babs = abs(o.hi) + abs(o.lo)
        err = (self.err + qabs * o.err) / babs * 1.01 + _EPS * qabs + _TINY
        if abs(hi) < _UNDERFLOW_FLOOR and (self.hi != 0.0 or self.lo != 0.0):
            err += _UNDERFLOW_FLOOR
        return HPReal(hi, lo, err)

    def __rtruediv__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def abs(self) -> "HPReal":
        return -self if self.hi < 0 else HPReal(self.hi, self.lo, self.err)

    # -- comparisons (on hi + lo, ignoring err) ------------------------

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        d = self - o
        if d.hi > 0:
            return 1
        if d.hi < 0:
            return -1
        return 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self.hi + self.lo)

    # -- elementary functions ------------------------------------------

    def sqrt(self) -> "HPReal":
        if self.hi < 0:
            raise ValueError("HPReal sqrt of negative value")
        if self.hi == 0 and self.lo == 0:
            return HPReal(0.0, 0.0, math.sqrt(self.err))
        y = HPReal(math.sqrt(self.hi))
        y = (y + self / y) * 0.5
        y = (y + self / y) * 0.5
        rel_in = self.err / (self.hi + self.lo)
        err = abs(float(y)) * (0.5 * rel_in + 4 * _EPS)
        return HPReal(y.hi, y.lo, err)

    def pow_int(self, k: int) -> "HPReal":
        if k < 0:
            return HPReal(1.0) / self.pow_int(-k)
        result = HPReal(1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exp(self) -> "HPReal":
        a = self.hi + self.lo
        if a > 709.0:
            raise OverflowError("HPReal exp overflow")
        if a < -745.0:
            return HPReal(0.0, 0.0, 5e-324)
        m = round(a / math.log(2.0))
        r = self - LN2 * m
        term = HPReal(1.0)
        total = HPReal(1.0)
        i = 1
        while True:
            term = term * r / i
            total = total + term
            if abs(term.hi) <= 2.0 ** -110 * abs(total.hi) or i > 40:
                break
            i += 1
        hi = math.ldexp(total.hi, m)
        lo = math.ldexp(total.lo, m)
        res = abs(hi)
        err = res * (self.err * (1.0 + self.err) + 16 * _EPS)
        return HPReal(hi, lo, err)

    def log(self) -> "HPReal":
        v = self.hi + self.lo
        if v <= 0:
            raise ValueError("HPReal log of non-positive value")
        # frexp reduction keeps the Newton iterate's exp() in range
        _, e = math.frexp(self.hi)
        f = HPReal(math.ldexp(self.hi, -e), math.ldexp(self.lo, -e))
        y = HPReal(math.log(f.hi + f.lo))
        for _ in range(2):
            ey = y.exp()
            y = y + f / ey - 1.0
        result = y + LN2 * e
        rel_in = self.err / v
        err = rel_in * 1.01 + _EPS * (abs(float(result)) + 1.0)
        return HPReal(result.hi, result.lo, err)


LN2 = HPReal(0.6931471805599453, 2.3190468138462996e-17)
PI = HPReal(3.141592653589793, 1.2246467991473532e-16)


def hp(value) -> HPReal:
    """Lift an int, float, or Fraction to HPReal."""
    r = HPReal._coerce(value)
    if r is NotImplemented:
        raise TypeError(f"cannot convert {type(value)!r} to HPReal")
    return r
