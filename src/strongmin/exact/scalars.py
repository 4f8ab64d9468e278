"""Gaussian rational scalars: complex numbers with rational parts.

Exact field arithmetic for the desk-scale reference computations.  A
:class:`GQ` is stored as one integer triple ``(a, b, d)`` meaning
``(a + b*i) / d``, kept canonical: ``d > 0`` and ``gcd(a, b, d) == 1``.
Each arithmetic operation is integer arithmetic followed by at most one
three-argument ``math.gcd``, and equal values have equal triples.  The
class is deliberately small; only the operations the exact layer needs are
implemented.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

_new = object.__new__


def _ratio(x):
    """``(numerator, denominator)`` of an exact rational input, denominator > 0."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def _gq(a: int, b: int, d: int) -> "GQ":
    """The GQ ``(a + b*i) / d`` for integers with ``d > 0``, made canonical."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GQ)
    z._a, z._b, z._d = a, b, d
    return z


class GQ:
    """Gaussian rational ``re + im*i``, immutable.

    Built from ``int``, ``bool``, ``Fraction`` or ``str`` parts, or from
    another ``GQ`` (whose imaginary part must then be 0).  ``re`` and
    ``im`` read the parts as ``Fraction``; the hash is that of
    ``(re, im)``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        if isinstance(re, GQ):
            if im != 0:
                raise TypeError("GQ(z, im) with a GQ z takes no imaginary part")
            return re
        an, ad = _ratio(re)
        bn, bd = _ratio(im)
        return _gq(an * bd, bn * ad, ad * bd)

    @staticmethod
    def coerce(x) -> "GQ":
        return x if isinstance(x, GQ) else GQ(x)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if not isinstance(other, GQ):
            other = GQ(other)
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if self._d == 1:
            # hash(Fraction(n)) == hash(n)
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    def __add__(self, other):
        if not isinstance(other, GQ):
            other = GQ(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _gq(a + c, b + e, d)
        if d == 1:
            # gcd(a*f + c, b*f + e, f) == gcd(c, e, f) == 1
            z = _new(GQ)
            z._a, z._b, z._d = a * f + c, b * f + e, f
            return z
        if f == 1:
            z = _new(GQ)
            z._a, z._b, z._d = a + c * d, b + e * d, d
            return z
        return _gq(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        z = _new(GQ)
        z._a, z._b, z._d = -self._a, -self._b, self._d
        return z

    def __sub__(self, other):
        if not isinstance(other, GQ):
            other = GQ(other)
        return self + (-other)

    def __rsub__(self, other):
        return GQ.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, GQ):
            other = GQ(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        return _gq(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def abs2(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def conjugate(self) -> "GQ":
        z = _new(GQ)
        z._a, z._b, z._d = self._a, -self._b, self._d
        return z

    def __truediv__(self, other):
        if not isinstance(other, GQ):
            other = GQ(other)
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b i)/d * f (c - e i)/n
        a, b, d = self._a, self._b, self._d
        return _gq((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other):
        return GQ.coerce(other) / self

    def inverse(self) -> "GQ":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gq(a * d, -b * d, n)

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        if not self._b:
            return f"GQ({self.re})"
        return f"GQ({self.re}, {self.im})"


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


def frac_sqrt(f: Fraction):
    """Exact square root of a nonnegative Fraction, or None."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def gq_sqrt(z: GQ):
    """Exact square root within the Gaussian rationals, or None."""
    if not z.im:
        if z.re >= 0:
            r = frac_sqrt(z.re)
            return GQ(r) if r is not None else None
        r = frac_sqrt(-z.re)
        return GQ(0, r) if r is not None else None
    r = frac_sqrt(z.abs2())
    if r is None:
        return None
    u = frac_sqrt((z.re + r) / 2)
    if u is None or u == 0:
        return None
    w = GQ(u, z.im / (2 * u))
    return w if w * w == z else None
