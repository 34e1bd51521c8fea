"""Exact arithmetic for boundary points: rationals, quadratic surds, infinity.

A Surd is stored in the canonical form (p + q*sqrt(d))/r with integer
p, q, r, r > 0, d squarefree, and gcd(p, q, r) = 1.  q = 0 forces
d = 0, so every rational has exactly one representation.  Arithmetic is closed
as long as at most one quadratic field is involved; mixing two distinct
irrational fields, in arithmetic or in an ordering, raises MixedFieldError.
As a boundary point a Surd is irrational: rational boundary points are
Fractions (see hyperbolic.chart_point).
"""

from __future__ import annotations

import math
from fractions import Fraction


class MixedFieldError(ArithmeticError):
    """Raised when an operation would mix two distinct quadratic fields."""


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d squarefree."""
    if n == 0:
        return 1, 0
    s, d, f = 1, 1, 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        s *= f ** (e // 2)
        if e % 2:
            d *= f
        f += 1 if f == 2 else 2
    return s, d * n


def _sign(p: int, q: int, d: int) -> int:
    """The sign of p + q sqrt(d), for d squarefree when q != 0."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp
    # opposite signs, or p = 0: compare p^2 with q^2*d, never equal
    return sp if p * p > q * q * d else sq


class Surd:
    """The real number (p + q*sqrt(d)) / r in canonical form."""

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        if d < 0:
            raise ValueError("negative discriminant")
        s, d = _squarefree_split(d)
        q *= s
        if d == 1:
            p, q = p + q, 0
        if q == 0 or d == 0:
            q, d = 0, 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        self.p, self.q, self.d, self.r = p, q, d, r

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_fraction(x) -> "Surd":
        f = Fraction(x)
        return Surd(f.numerator, 0, 0, f.denominator)

    # -- predicates -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError("not rational")
        return Fraction(self.p, self.r)

    def conjugate(self) -> "Surd":
        return Surd(self.p, -self.q, self.d, self.r)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Surd):
            return other
        return Surd.from_fraction(other)

    def _join_field(self, other: "Surd") -> int:
        if self.q == 0:
            return other.d
        if other.q == 0:
            return self.d
        if self.d != other.d:
            raise MixedFieldError(f"sqrt({self.d}) vs sqrt({other.d})")
        return self.d

    def __add__(self, other):
        o = self._coerce(other)
        d = self._join_field(o)
        return Surd(self.p * o.r + o.p * self.r,
                    self.q * o.r + o.q * self.r, d, self.r * o.r)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._join_field(o)
        p = self.p * o.p + self.q * o.q * d
        q = self.p * o.q + self.q * o.p
        return Surd(p, q, d, self.r * o.r)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # 1 / ((p+q*sqrt(d))/r) = r*(p-q*sqrt(d)) / (p^2 - q^2*d)
        n = self.p * self.p - self.q * self.q * self.d
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return Surd(self.r * self.p, -self.r * self.q, self.d, n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        return _sign(self.p, self.q, self.d)

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            # s - m/n has the sign of (n p - m r) + n q sqrt(d)
            m, n = other.numerator, other.denominator
            return _sign(n * self.p - m * self.r, n * self.q, self.d)
        return (self - self._coerce(other)).sign()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p * other.denominator == \
                other.numerator * self.r
        if other is INFINITY:
            return False
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.p, self.q, self.d, self.r) == (o.p, o.q, o.d, o.r)

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.d, self.r))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- floor and continued fractions ------------------------------------

    def __floor__(self) -> int:
        if self.q == 0:
            return self.p // self.r
        t = math.isqrt(self.q * self.q * self.d)
        if self.q < 0:
            t = -t - 1
        n = (self.p + t) // self.r
        while self.compare(n + 1) >= 0:
            n += 1
        while self.compare(n) < 0:
            n -= 1
        return n

    def expansion(self) -> tuple[list[int], list["Surd"], int]:
        """(a, alpha, start) for an irrational value x = alpha[0].

        a[i] are the partial quotients and alpha[i] the complete quotients,
        alpha[i] = a[i] + 1 / alpha[i + 1], listed up to the first repeat:
        for i >= start both continue with period len(a) - start.
        """
        if self.q == 0:
            raise ValueError("rational value: the expansion terminates")
        # alpha = (P + s sqrt(d)) / Q with Q | s^2 d - P^2
        s, P, Q, d = abs(self.q), self.p, self.r, self.d
        if self.q < 0:
            P, Q = -P, -Q
        if (s * s * d - P * P) % Q != 0:
            P, s, Q = P * abs(Q), s * abs(Q), Q * abs(Q)
        N = s * s * d
        sqrt_n = math.isqrt(N)
        terms, alphas, seen = [], [], {}
        while (P, Q) not in seen:
            seen[(P, Q)] = len(terms)
            alphas.append(Surd(P, s, d, Q))
            a = (P + (sqrt_n if Q > 0 else sqrt_n + 1)) // Q
            terms.append(a)
            P = a * Q - P
            Q = (N - P * P) // Q
        return terms, alphas, seen[(P, Q)]

    # -- misc -------------------------------------------------------------

    def __float__(self):
        if self.q == 0:
            return self.p / self.r
        return (self.p + self.q * math.sqrt(self.d)) / self.r

    def __repr__(self):
        if self.q == 0:
            return f"Surd({Fraction(self.p, self.r)})"
        return f"Surd(({self.p}{self.q:+d}*sqrt({self.d}))/{self.r})"


class _Infinity:
    """The point at infinity on the boundary circle."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("horocover-infinity")


INFINITY = _Infinity()


PHI = Surd(1, 1, 5, 2)
SQRT2 = Surd(0, 1, 2, 1)
