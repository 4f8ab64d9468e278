"""Exact univariate polynomials over the Gaussian rationals.

Coefficients are stored ascending with trailing zeros stripped; the zero
polynomial has an empty coefficient tuple and degree -1.  Root extraction
is exact and limited to what the Gaussian rationals can represent: rational
roots through the integer rational-root theorem and quadratic factors whose
discriminant has an exact square root in Q(i).  Anything beyond that must
be supplied by the caller as candidate points.
"""
from __future__ import annotations

from fractions import Fraction

from .scalars import GQ, gq_sqrt


class Poly:
    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = [GQ.coerce(x) for x in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.c = tuple(cs)

    @staticmethod
    def coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly([GQ.coerce(x)])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def from_roots(roots) -> "Poly":
        p = Poly([1])
        for r in roots:
            p = p * Poly([-GQ.coerce(r), GQ(1)])
        return p

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return self.c == Poly.coerce(other).c

    def __hash__(self):
        return hash(self.c)

    def lead(self) -> GQ:
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.c[-1]

    def __add__(self, other):
        other = Poly.coerce(other)
        n = max(len(self.c), len(other.c))
        return Poly(
            [
                (self.c[i] if i < len(self.c) else GQ(0))
                + (other.c[i] if i < len(other.c) else GQ(0))
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly([-x for x in self.c])

    def __sub__(self, other):
        return self + (-Poly.coerce(other))

    def __rsub__(self, other):
        return Poly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (GQ, int, Fraction)):
            g = GQ.coerce(other)
            return Poly([x * g for x in self.c])
        other = Poly.coerce(other)
        if not self.c or not other.c:
            return Poly()
        out = [GQ(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(other.c):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if not self.c:
            return Poly()
        return Poly([GQ(0)] * k + list(self.c))

    def divmod(self, other: "Poly"):
        other = Poly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        q = [GQ(0)] * max(0, len(rem) - len(other.c) + 1)
        dlead = other.lead()
        dn = other.degree
        while len(rem) - 1 >= dn and rem:
            k = len(rem) - 1 - dn
            f = rem[-1] / dlead
            q[k] = f
            for i, b in enumerate(other.c):
                rem[k + i] = rem[k + i] - f * b
            while rem and not rem[-1]:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division was not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return self * inv

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, Poly.coerce(other)
        if a.degree == 0 or b.degree == 0:
            return ONE_POLY
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def lcm(self, other: "Poly") -> "Poly":
        other = Poly.coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        g = self.gcd(other)
        return (self * other).exact_div(g).monic()

    def eval(self, z: GQ) -> GQ:
        z = GQ.coerce(z)
        acc = GQ(0)
        for a in reversed(self.c):
            acc = acc * z + a
        return acc

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for a in reversed(self.c):
            acc = acc * z + a.to_complex()
        return acc

    def deflate(self, root: GQ) -> "Poly":
        """Exact synthetic division by (x - root)."""
        root = GQ.coerce(root)
        q, r = self.divmod(Poly([-root, GQ(1)]))
        if not r.is_zero():
            raise ArithmeticError("not a root")
        return q

    def valuation_at(self, point: GQ) -> int:
        """Multiplicity of ``point`` as a root (0 when not a root)."""
        if self.is_zero():
            raise ValueError("valuation of the zero polynomial is undefined")
        point = GQ.coerce(point)
        v = 0
        p = self
        while p.eval(point) == GQ(0):
            p = p.deflate(point)
            v += 1
        return v

    def reversed(self) -> "Poly":
        """x**deg * p(1/x)."""
        return Poly(list(reversed(self.c)))

    def __repr__(self):
        return f"Poly({[str(a.re) if not a.im else repr(a) for a in self.c]})"


ZERO_POLY = Poly()
ONE_POLY = Poly([1])


def _divisors(n: int, limit: int = 200000):
    """All positive divisors of |n|; None when factorization stalls."""
    n = abs(n)
    if n == 0:
        return None
    factors = {}
    p = 2
    while p * p <= n and p <= limit:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        if n > limit * limit:
            return None
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [d * prime**e for d in divs for e in range(mult + 1)]
    return sorted(set(divs))


def _rational_poly_gcd(a: list, b: list) -> list:
    """Euclid over Q[x] on ascending Fraction coefficient lists."""

    def strip(p):
        p = list(p)
        while p and p[-1] == 0:
            p.pop()
        return p

    def pmod(p, d):
        p = strip(p)
        d = strip(d)
        while len(p) >= len(d) and p:
            f = p[-1] / d[-1]
            k = len(p) - len(d)
            for i, x in enumerate(d):
                p[k + i] -= f * x
            p = strip(p)
        return p

    a, b = strip(a), strip(b)
    while b:
        a, b = b, pmod(a, b)
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def rational_roots(p: Poly) -> list:
    """All roots of ``p`` lying in Q, found exactly (without multiplicity).

    A rational point is a root of a Gaussian-rational polynomial iff it is
    a common root of the real and imaginary coefficient parts; the search
    uses the integer rational-root theorem on their gcd.
    """
    if p.is_zero() or p.degree == 0:
        return []
    re = [a.re for a in p.c]
    im = [a.im for a in p.c]
    g = _rational_poly_gcd(re, im)
    if not g:
        raise ValueError("zero polynomial")
    if len(g) == 1:
        return []
    den_lcm = 1
    for f in g:
        den_lcm = den_lcm * f.denominator // __import__("math").gcd(
            den_lcm, f.denominator
        )
    ig = [int(f * den_lcm) for f in g]
    roots = []
    k = 0
    while ig and ig[0] == 0:
        ig = ig[1:]
        if not roots:
            roots.append(GQ(0))
        k += 1
    if not ig or len(ig) == 1:
        return roots
    d0 = _divisors(ig[0])
    dl = _divisors(ig[-1])
    if d0 is None or dl is None:
        return roots

    def is_root(x: Fraction) -> bool:
        acc = Fraction(0)
        for a in reversed(ig):
            acc = acc * x + a
        return acc == 0

    seen = set()
    for pn in d0:
        for qd in dl:
            for sign in (1, -1):
                x = Fraction(sign * pn, qd)
                if x in seen:
                    continue
                seen.add(x)
                if is_root(x):
                    roots.append(GQ(x))
    return roots


def _quadratic_roots(p: Poly):
    """Exact roots of a degree <= 2 polynomial within Q(i), or None."""
    if p.degree == 1:
        return [(-p.c[0]) / p.c[1]]
    if p.degree == 2:
        a, b, c = p.c[2], p.c[1], p.c[0]
        disc = b * b - GQ(4) * a * c
        sq = gq_sqrt(disc)
        if sq is None:
            return None
        inv2a = (GQ(2) * a).inverse()
        return [(-b + sq) * inv2a, (-b - sq) * inv2a]
    return None


def exact_roots(p: Poly, candidates=()):
    """Exact distinct roots of ``p`` in Q(i) with multiplicities.

    Returns ``(roots, leftover_degree)`` where ``roots`` maps each found
    root to its multiplicity and ``leftover_degree`` is the degree of the
    unresolved factor (0 when the polynomial split completely).  Candidate
    points are verified by exact evaluation before use.
    """
    if p.is_zero():
        raise ValueError("cannot extract roots of the zero polynomial")
    work = p
    roots = {}

    def take(root: GQ):
        nonlocal work
        mult = 0
        while work.degree >= 1 and work.eval(root) == GQ(0):
            work = work.deflate(root)
            mult += 1
        if mult:
            roots[root] = roots.get(root, 0) + mult

    for cand in candidates:
        take(GQ.coerce(cand))
    for r in rational_roots(work):
        take(r)
    while 1 <= work.degree <= 2:
        sol = _quadratic_roots(work)
        if sol is None:
            break
        for r in sol:
            take(r)
    leftover = max(work.degree, 0)
    return roots, leftover
