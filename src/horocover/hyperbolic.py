"""Exact upper half-plane geometry for SL2(Z) with Ford horoballs.

Group elements are integer matrices of determinant one, identified with their
negatives (the boundary action factors through PSL2).  Boundary points are
INFINITY, exact Fractions or irrational quadratic surds (see chart_point),
and the group moves them in that form.  Ford horoballs are indexed
by their rational tangency point; the horoball at p/q is the open Euclidean
disk of diameter 1/q^2 tangent at p/q, and the horoball at infinity is the
open region above height 1.  Projection distances are measured in the path
metric of the horocycle after moving the horoball to infinity, which gives an
exact closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from .certified import (
    INFINITE,
    CertifiedReal,
    fraction_to_iv,
    iv_acos,
    surd_iv,
)
from .surd import INFINITY, Surd


class GroupElement:
    """An element of SL2(Z), sign-normalized to represent +/-g jointly."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant of ({a},{b},{c},{d}) is not 1")
        # normalize: first nonzero entry of (a, c, b, d) positive
        for entry in (a, c, b, d):
            if entry != 0:
                if entry < 0:
                    a, b, c, d = -a, -b, -c, -d
                break
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"GroupElement({self.a},{self.b},{self.c},{self.d})"

    def apply_boundary(self, x):
        """The Moebius action on the boundary circle, exact, in the form of
        `chart_point`.  INFINITY and a Fraction move by the integer map on
        (numerator, denominator); an irrational Surd moves by Surd
        arithmetic and stays irrational, so it never reaches INFINITY."""
        x = chart_point(x)
        a, b, c, d = self.a, self.b, self.c, self.d
        if isinstance(x, Surd):
            return (x * a + b) / (x * c + d)
        if x is INFINITY:
            num, den = a, c
        else:
            n, m = x.numerator, x.denominator
            num, den = a * n + b * m, c * n + d * m
        return INFINITY if den == 0 else Fraction(num, den)

    def apply_point(self, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        """The action on an interior point with rational coordinates."""
        a, b, c, d = self.a, self.b, self.c, self.d
        n = (c * x + d) ** 2 + c * c * y * y
        rx = ((a * x + b) * (c * x + d) + a * c * y * y) / n
        return rx, y / n


IDENTITY = GroupElement(1, 0, 0, 1)
GEN_T = GroupElement(1, 1, 0, 1)
GEN_S = GroupElement(0, -1, 1, 0)

BASEPOINT = (Fraction(0), Fraction(1))  # x0 = i


class Horoball:
    """A Ford horoball, identified by its rational tangency point."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if q < 0:
            p, q = -p, -q
        g = math.gcd(abs(p), q)
        if g == 0:
            raise ValueError("tangency 0/0")
        p, q = p // g, q // g
        if q == 0:
            p = 1
        self.p, self.q = p, q

    @staticmethod
    def at(x) -> "Horoball":
        """The horoball tangent at a rational boundary point."""
        return Horoball(*rational_pair(x))

    @property
    def tangency(self):
        """The tangency point in the form of `chart_point`."""
        return INFINITY if self.q == 0 else Fraction(self.p, self.q)

    def translate(self, g: GroupElement) -> "Horoball":
        # p/q moves to (a p + b q) / (c p + d q), still in lowest terms
        return Horoball(g.a * self.p + g.b * self.q,
                        g.c * self.p + g.d * self.q)

    def __eq__(self, other):
        if not isinstance(other, Horoball):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __lt__(self, other):
        # lexicographic (q, p): the tie-break order used throughout
        return (self.q, self.p) < (other.q, other.p)

    def __hash__(self):
        return hash(("horoball", self.p, self.q))

    def __repr__(self):
        if self.q == 0:
            return "Horoball(oo)"
        return f"Horoball({self.p}/{self.q})"


HOROBALL_INF = Horoball(1, 0)


def normalizer(Y: Horoball) -> GroupElement:
    """The canonical M in SL2(Z) with M(tangency(Y)) = infinity.

    Canonical means the top-left entry is the minimal nonnegative one among
    all valid choices with bottom row (q, -p).
    """
    p, q = Y.p, Y.q
    if q == 0:
        return IDENTITY
    # need a*(-p) - b*q = 1; from extended gcd a0*p + b0*q = 1 take (-a0,-b0)
    a0, b0 = _ext_gcd(p, q)
    a = (-a0) % q
    b = (-1 - a * p) // q
    return GroupElement(a, b, q, -p)


def _ext_gcd(p: int, q: int) -> tuple[int, int]:
    """(x, y) with x*p + y*q = gcd(p, q) = 1."""
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def chart_point(x):
    """A horoball's tangency point, or a boundary point, as INFINITY, an
    exact Fraction or an irrational Surd: the one form every chart
    computation takes its points in.  INFINITY, a Fraction and an
    irrational Surd are returned as they are; an int and a rational Surd
    become Fractions."""
    if x is INFINITY or isinstance(x, Fraction):
        return x
    if isinstance(x, Horoball):
        return x.tangency
    if isinstance(x, Surd):
        return x.as_fraction() if x.is_rational else x
    return Fraction(x)


def rational_pair(x) -> tuple[int, int]:
    """A horoball or a rational boundary point as the primitive integer
    pair (a, b) with b >= 0 and infinity = (1, 0)."""
    if isinstance(x, Horoball):
        return x.p, x.q
    if x is not INFINITY and not isinstance(x, Fraction):
        x = chart_point(x)  # an int or a rational Surd
    return (1, 0) if x is INFINITY else (x.numerator, x.denominator)


def proj_dist_int(Y: tuple, u: tuple, v: tuple) -> tuple[int, int, int]:
    """The integer closed form of d^pi at rational data, on integer pairs
    Y = (p, q), u = (a, b), v = (c, e) (see `rational_pair`):

        d^pi_Y(u, v) = |a e - b c| / (|q a - p b| |q c - p e|).

    Returns the numerator and the two factors.  A zero factor means the
    value is infinite: that endpoint is the tangency of Y.  The value is
    homogeneous of degree 0 in each pair, so u and v need not be reduced."""
    (p, q), (a, b), (c, e) = Y, u, v
    return abs(a * e - b * c), abs(q * a - p * b), abs(q * c - p * e)


def proj_dist_frac(Y: Horoball, u, v):
    """The value of `proj_dist_int` as a Fraction, or INFINITE, for Y and
    endpoints u, v that are horoballs or rational chart points."""
    n, fu, fv = proj_dist_int(rational_pair(Y), rational_pair(u),
                              rational_pair(v))
    if fu == 0 or fv == 0:
        return INFINITE
    return Fraction(n, fu * fv)


def projection_distance(Y: Horoball, u, v):
    """The projection distance onto the horocycle of Y at rational data,
    as an exact CertifiedReal, or INFINITE when an endpoint is the
    tangency point of Y (see `proj_dist_frac`)."""
    d = proj_dist_frac(Y, u, v)
    return d if d is INFINITE else CertifiedReal(exact=d)


# -- ray geometry ---------------------------------------------------------


def _geodesic_circle(x0: Fraction, y0: Fraction, xi):
    """Center and squared radius of the geodesic through (x0, y0) with
    boundary endpoint xi; None for a vertical line (xi = infinity or below
    the point)."""
    if xi is INFINITY or isinstance(xi, Fraction) and xi == x0:
        return None  # an irrational xi never equals the rational x0
    # (x0-c)^2 + y0^2 = (xi-c)^2
    c = (xi * xi - Surd.from_fraction(x0 * x0 + y0 * y0)) / ((xi - x0) * 2)
    r2 = (xi - c) * (xi - c)
    return c, r2


# -- fundamental domain reduction -----------------------------------------


def locate(z) -> GroupElement:
    """g with g^{-1} z in the standard fundamental domain, for rational
    z = (x, y) with y > 0: -1/2 <= Re < 1/2, |z| >= 1, and Re <= 0 on the
    unit circle.  The reduction runs in floats to a word h0 and is finished
    exactly from h0^{-1} z.  Off the orbit of i the element is unique in
    PSL2(Z), so this is the exact loop's result whatever h0 is; a point
    reducing to i, the domain's only rational point with a nontrivial
    stabiliser, is reduced again from z, whose path picks the element."""
    x, y = Fraction(z[0]), Fraction(z[1])
    if y <= 0:
        raise ValueError("interior point needs y > 0")
    h0 = _float_guide(float(x), float(y))
    acc, rx, ry = _reduce(*h0.inverse().apply_point(x, y))
    if (rx, ry) == BASEPOINT:
        h0, (acc, _, _) = IDENTITY, _reduce(x, y)
    return h0 * acc.inverse()


def _reduce(x: Fraction, y: Fraction):
    """The exact reduction loop: (acc, x', y') with acc (x + iy) = x' + iy'
    in the canonical domain."""
    acc = IDENTITY
    for _ in range(10000):
        n = math.floor(x + Fraction(1, 2))  # x - n in [-1/2, 1/2)
        if n != 0:
            x -= n
            acc = GroupElement(1, -n, 0, 1) * acc
        norm = x * x + y * y
        if norm < 1:
            x, y = -x / norm, y / norm
            acc = GEN_S.inverse() * acc
            continue
        if norm == 1 and x > 0:
            x = -x
            acc = GEN_S.inverse() * acc
        return acc, x, y
    raise RuntimeError("reduction loop did not terminate")  # pragma: no cover


def _float_guide(x: float, y: float) -> GroupElement:
    """The inverse of the word the reduction loop accumulates, run in
    floats: a candidate for `locate`, exact or not."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        n = math.floor(x + 0.5)
        x -= n
        a, b = a - n * c, b - n * d  # T^-n acc
        norm = x * x + y * y
        if not 0 < norm < 1:
            break
        x, y = -x / norm, y / norm
        a, b, c, d = c, d, -a, -b  # S^-1 acc
    return GroupElement(d, -b, -c, a)


# -- geodesic parametrization ---------------------------------------------


def _ray(g: GroupElement, xi) -> tuple:
    """The t-independent part of the ray from g x0 toward the chart point
    xi: the start (x0, y0), the sign s in exp(s t), and for a circular ray
    a function giving enclosures of its centre c, radius r and start
    parameter u0 = tan(theta0 / 2), once per iv precision (else None)."""
    from mpmath import iv
    x0, y0 = orbit_point(g)
    circ = _geodesic_circle(x0, y0, xi)
    if circ is None:
        return x0, y0, (1 if xi is INFINITY else -1), None
    c, r2 = circ
    enclosures = {}  # iv.prec -> (c, r, u0)

    def circle():
        if iv.prec not in enclosures:
            civ = surd_iv(c)
            riv = iv.sqrt(surd_iv(r2))
            theta0 = iv_acos((fraction_to_iv(x0) - civ) / riv)
            enclosures[iv.prec] = civ, riv, iv.tan(theta0 / 2)
        return enclosures[iv.prec]

    return x0, y0, (-1 if (xi - c).sign() > 0 else 1), circle


def geodesic_point(g: GroupElement, xi, t) -> tuple[CertifiedReal, CertifiedReal]:
    """The point at arclength t >= 0 along the unit-speed ray from g*x0
    toward xi, as certified coordinates."""
    from mpmath import iv
    x0, y0, s, circle = _ray(g, chart_point(xi))
    t = Fraction(t)

    def growth():  # exp(s t)
        return iv.exp(fraction_to_iv(t) if s > 0 else -fraction_to_iv(t))

    if circle is None:
        fy = CertifiedReal(refine=lambda dps: fraction_to_iv(y0) * growth())
        return CertifiedReal(exact=x0), fy
    evaluated = {}  # iv.prec -> (x, y): one evaluation serves both

    def coords():
        if iv.prec not in evaluated:
            civ, riv, u0 = circle()
            u = u0 * growth()
            cos_t = (1 - u * u) / (1 + u * u)
            sin_t = 2 * u / (1 + u * u)
            evaluated[iv.prec] = civ + riv * cos_t, riv * sin_t
        return evaluated[iv.prec]

    fx = CertifiedReal(refine=lambda dps: coords()[0])
    fy = CertifiedReal(refine=lambda dps: coords()[1])
    return fx, fy


def orbit_point(g: GroupElement) -> tuple[Fraction, Fraction]:
    """g * x0 as exact rational coordinates."""
    return g.apply_point(*BASEPOINT)


def word_spheres():
    """The spheres of radius 0, 1, 2, ... about the identity in the word
    metric of T, T^-1 and S, each a list of sign-normalized elements;
    breadth-first and lazy, so a consumer may stop at any radius."""
    seen = {IDENTITY}
    frontier = [IDENTITY]
    gens = [GEN_T, GEN_T.inverse(), GEN_S]
    while True:
        yield frontier
        nxt = []
        for g in frontier:
            for h in gens:
                e = g * h
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt


def word_ball(radius: int) -> list[GroupElement]:
    """All sign-normalized elements within the given word length in T, S."""
    ball = [g for sphere in islice(word_spheres(), radius + 1) for g in sphere]
    return sorted(ball, key=lambda g: (g.a, g.b, g.c, g.d))
