"""The thick-part cover: ray classification, the coarse flow space,
flow-line charts, long thin covers along the flow, and pullbacks.

The compact thick part is encoded by a depth bound: a ray is thick when
every horoball penetration stays at or below D_max = log(Theta/2),
equivalently when no projection distance exceeds Theta.  The coarse flow
space CF_0 holds the triples (x_-, v, xi_+) with v an orbit point within
rho of the witness ray from x_- toward xi_+ over its times [0, t_max].  The
sample keeps what the charts read: for each forward endpoint, the orbit
points v found along its rays, and the number of triples.  Each endpoint
gives one flow-line chart, the v within line_R of the line from x0 toward
it with their foot times on that line, and the long thin cover lays two
staggered interval families of length 4*beta along each chart.  The coarse
flow map iota_tau pushes a pair (g, xi) to the orbit points within rho of
the time-tau point of its ray, and covers pull back through it.

Both are one flood fill over the orbit points, complete by a margin.  The
orbit points v x0 are the midpoints of the edges of the Farey tessellation
(x0 = i is that of the edge from 0 to infinity), and v x0 is linked to
v T x0, v T^-1 x0, v S T x0 and v S T^-1 x0, the other midpoints of the two
Farey triangles on its edge; so the three midpoints of a triangle are
mutually linked, and the fill keys a point by (a, n), v x0 = (a + i) / n
(v and v S give one point and the same four links).  The depth of a point
is how far inside a Ford horoball it lies, 0 outside them all; it is
1-Lipschitz and 0 at every orbit point.  The part of a triangle outside the
horoballs lies within 2 asinh(1/2) of each of its midpoints: on its three
boundary horocycle arcs the distance to a midpoint is at most that, the
distance between two midpoints, and a disc holding the boundary holds the
region.  A point at depth delta lies delta from that part, along the
geodesic to the cusp of its horoball, which stays in the triangle; so it
lies within delta + 2 asinh(1/2) of each midpoint of its triangle.

Let sigma be a segment of a ray whose points have depth at most D, and let
the fill start at an orbit point v0 at distance L0 from sigma.  Take an
orbit point z within rho of sigma, its nearest point s on sigma and the
path from z to s, then along sigma, then to v0.  The triangles the path
crosses follow each other across shared edges, so their midpoints form one
linked set that holds z and v0, and a midpoint of the triangle of a path
point p lies within depth(p) + 2 asinh(1/2) of p.  On [z, s], with a =
d(z, p) and b = d(p, s), depth(p) <= min(a, D + b) and a + b <= rho, so
depth(p) + b <= rho; on sigma depth(p) <= D; toward v0 depth(p) plus the
distance from p back to sigma is at most L0.  So a fill that expands every
orbit point within reach = 2 asinh(1/2) + max(rho, D, L0) of sigma and
keeps those within rho finds every orbit point within rho of sigma.  For
the sample, sigma is the times [0, t_max] of the ray from g x0, v0 = g and
L0 = 0, and D comes from the exact projection suprema (`_Ray.depth_bound`);
on the perfbench rays D < rho, so the margin is 2 asinh(1/2).
For iota_tau, sigma is the time-tau point and v0 is `locate` of a point
near it, and D <= L0 since v0 has depth 0.

Each kept point is decided exactly: in the chart of its ray the distance is
an element of Q(sqrt d) against e^t and cosh rho, compared in floats from
exact integers outside a band that covers their error, and inside it as an
exponential sum whose terms with equal exponents are merged, which
Lindemann-Weierstrass lets refinement decide (see `_Ray`); so are a chart's
members and their foot times, snapped to the nearest quarter.  A chart's
parameter map is a quasi-isometric embedding by proof (see
`FlowLineChart`), so no chart is measured or rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .certified import INFINITE
from .hyperbolic import (
    GroupElement,
    HOROBALL_INF,
    Horoball,
    IDENTITY,
    chart_point,
    locate,
    word_ball,
)
from .projection_data import cusp_projections, sup_projection
from .surd import INFINITY, Surd, _sign


@dataclass(frozen=True)
class ThickParams:
    """Parameters of the coarse flow space CF(K, rho).

    The compact set is the D_max-thick part, D_max = log(Theta/2); rho
    must dominate the distance from the basepoint to K and to its S-orbit.
    """

    Theta: Fraction
    rho: Fraction
    beta: Fraction
    t_max: Fraction = Fraction(12)

    def __post_init__(self):
        if self.Theta <= 2:
            raise ValueError("need Theta > 2 for a positive depth bound")
        if self.rho < 0 or self.beta <= 0 or self.t_max < 0:
            raise ValueError("need rho >= 0, beta > 0 and t_max >= 0")

    @property
    def depth_bound(self) -> float:
        return math.log(float(self.Theta) / 2)


@dataclass
class ThickCertificate:
    """All penetrations of the ray [g x0, xi) are at most log(Theta/2):
    every projection distance onto a horoball is at most `sup`, the exact
    supremum, which lies below Theta."""

    g: GroupElement
    xi: object
    sup: Surd


def classify(g: GroupElement, xi, Theta: Fraction):
    """Thick/thin dichotomy for the ray from g x0 toward xi.

    Returns a ThickCertificate, or a pair (Horoball, value) with projection
    distance value > Theta.  Computed in the base chart at (e, g^{-1} xi),
    then translated back.  Exact and always decided: at a quadratic surd
    the supremum of the projection distances is an irrational element of
    its field (see projection_data.sup_projection), so it never ties with
    the rational Theta.
    """
    w = g.inverse().apply_boundary(xi)
    if not isinstance(w, Surd):
        return Horoball.at(w).translate(g), INFINITE
    sup = sup_projection(HOROBALL_INF, w)
    if sup.below(Theta):
        return ThickCertificate(g, xi, sup.value)
    if sup.witness is None:
        # a class limit above Theta: its convergents pass Theta infinitely
        # often, so the first convergent above Theta is a witness
        Y, d = next((Y, d) for Y, d in cusp_projections(w) if d > Theta)
        return Y.translate(g), d
    return sup.witness.translate(g), sup.value


# -- the coarse flow space --------------------------------------------------


# 2 asinh(1/2): the distance between two midpoints of one Farey triangle,
# and the farthest its part outside the horoballs lies from any of them
_MID_GAP = 2 * math.asinh(0.5)

# a float comparison decides only when its two sides differ by more than
# this share of the size it is measured against; its floats err by less
# than 2^-45 of that size (see _Ray)
_BAND = 2.0 ** -30

# added to float upper bounds (reach, depth) against their rounding
_PAD = 2.0 ** -40


def _orbit_ints(v: tuple) -> tuple[int, int]:
    """(a, n) with v x0 = (a + i) / n for v = (a, b, c, d); the key of an
    orbit point."""
    a, b, c, d = v
    return a * c + b * d, c * c + d * d


def _element(g: GroupElement) -> tuple:
    return g.a, g.b, g.c, g.d


def _homogeneous(x) -> tuple[tuple, tuple, int]:
    """A boundary point as (num, den, d): x = num / den with num and den in
    Z[sqrt d] as pairs (p, q) = p + q sqrt d, and infinity = (1, 0) / (0, 0)."""
    x = chart_point(x)
    if x is INFINITY:
        return (1, 0), (0, 0), 0
    if isinstance(x, Fraction):
        return (x.numerator, 0), (x.denominator, 0), 0
    return (x.p, x.q), (x.r, 0), x.d


def _mul(u: tuple, v: tuple, d: int) -> tuple:
    """The product in Z[sqrt d] of pairs (p, q) = p + q sqrt d."""
    return u[0] * v[0] + u[1] * v[1] * d, u[0] * v[1] + u[1] * v[0]


def _exp_bounds(r: Fraction, bits: int) -> tuple[int, int]:
    """Integers lo <= e^r 2^bits <= hi, from the Taylor series of e^x at
    x = r / 2^k <= 1/2 summed in fixed point with floors and ceilings, the
    tail bounded by the last term (the term ratio is at most 1/2), then
    squared k times."""
    if r < 0:
        lo, hi = _exp_bounds(-r, bits)
        one = 1 << (2 * bits)
        return one // hi, -(-one // lo)
    k = 1 + math.ceil(r).bit_length()
    w = bits + k + 8
    xn, xd = r.numerator, r.denominator << k
    lo = hi = term_lo = term_hi = 1 << w
    j = 0
    while term_hi > 1:
        j += 1
        term_lo = term_lo * xn // (xd * j)
        term_hi = -(-term_hi * xn // (xd * j))
        lo += term_lo
        hi += term_hi
    hi += term_hi
    for _ in range(k):
        lo, hi = lo * lo >> w, -(-hi * hi >> w)
    return lo >> (w - bits), -(-hi >> (w - bits))


def _exp_sign(terms, d: int) -> int:
    """The sign of sum c e^r over the terms (r, c), r rational and c a pair
    in Z[sqrt d].  Terms of equal r are merged first.  By the Lindemann-
    Weierstrass theorem a sum over distinct r with nonzero algebraic c is
    not zero, so refining the enclosures of the e^r decides it; a sum with
    every c zero is exactly 0."""
    merged = {}
    for r, (p, q) in terms:
        mp, mq = merged.get(r, (0, 0))
        merged[r] = (mp + p, mq + q)
    merged = [(r, c) for r, c in merged.items() if c != (0, 0)]
    if not merged:
        return 0
    bits = 64
    while bits <= 1 << 16:  # reached only through a defect
        lo_p = lo_q = hi_p = hi_q = 0
        for r, (p, q) in merged:
            lo, hi = (1 << bits, 1 << bits) if r == 0 else _exp_bounds(r, bits)
            if _sign(p, q, d) < 0:
                lo, hi = hi, lo
            lo_p, lo_q, hi_p, hi_q = (lo_p + p * lo, lo_q + q * lo,
                                      hi_p + p * hi, hi_q + q * hi)
        if _sign(lo_p, lo_q, d) > 0:
            return 1
        if _sign(hi_p, hi_q, d) < 0:
            return -1
        bits *= 2
    raise ArithmeticError("exponential sum not separated from 0")


class _Ray:
    """The ray from g x0 toward xi, seen in the chart

        M(z) = (eta_n - eta_d z) / (n0 (xi_d z - xi_n)),

    which sends its line to the imaginary axis, its backward end eta =
    eta_n / eta_d to 0, xi = xi_n / xi_d to infinity and g x0 = (a0 + i) / n0
    to i, so that its time-t point goes to i e^t.  The four are pairs in
    Z[sqrt d] (see `_homogeneous`).  At an orbit point z = (a + i) / n, with
    f = a eta_d - n eta_n and h = a xi_d - n xi_n in Z[sqrt d],

        |M z|^2 = (f^2 + eta_d^2) / (n0^2 (h^2 + xi_d^2)),
        sinh d(z, line) = |f h + eta_d xi_d| / (n c),

    for c = (n0 xi_n - a0 xi_d)^2 + xi_d^2, and cosh d(z, i e^t) =
    (|M z|^2 + e^{2t}) / (2 e^t Im M z) with Im M z = n c / (n0 (h^2 +
    xi_d^2)).  The foot of z on the line is at time log|M z|, and Pythagoras
    gives cosh of the distance to the segment of times [t0, t1] as
    sqrt(1 + sinh^2 d(z, line)) cosh(time past the segment).

    `_cosh_line` and `_cosh_distance` evaluate that in floats.  f and h are
    exact integers first, and an element p + q sqrt d of opposite signs is
    rounded as (p^2 - q^2 d) / (p - q sqrt d), so each float has relative
    error below 8 ulps whatever the cancellation; the only difference left,
    f h + eta_d xi_d, errs by 20 ulps of |f h| + |eta_d xi_d|.  The result
    errs by less than 100 ulps < 2^-45 of X (1 + perm), for X the value and
    perm the size of that difference as a sinh; a comparison with a float
    of libm's cosh (within 2 ulps) decides only outside the band _BAND X (1
    + perm), and `_within` (`_near_line` for the whole line) decides the
    rest exactly.  The foot time, half the log of a quotient of sums of
    squares, errs by less than 2^-45 (1 + |time|), so the quarter snap
    decides in floats when 4 time lies more than _BAND (1 + |4 time|) from
    a half-integer, and `chart_time` decides the rest exactly."""

    __slots__ = ("g", "xi", "d", "n0", "xn", "xd", "en", "ed", "c", "_fl",
                 "_floats")

    def __init__(self, g: GroupElement, xi):
        self.g, self.xi = g, xi
        xn, xd, d = _homogeneous(xi)
        a0, n0 = _orbit_ints(_element(g))
        # eta, the other end of the line through g x0: x0 = a0 / n0 and
        # |g x0|^2 = (a0^2 + 1) / n0^2, scaled by n0^2
        en = (xn[0] * a0 * n0 - xd[0] * (a0 * a0 + 1),
              xn[1] * a0 * n0 - xd[1] * (a0 * a0 + 1))
        ed = (xn[0] * n0 * n0 - xd[0] * a0 * n0,
              xn[1] * n0 * n0 - xd[1] * a0 * n0)
        h0 = (a0 * xd[0] - n0 * xn[0], a0 * xd[1] - n0 * xn[1])
        c = tuple(s + t for s, t in zip(_mul(h0, h0, d), _mul(xd, xd, d)))
        self.d, self.n0 = d, n0
        self.xn, self.xd, self.en, self.ed, self.c = xn, xd, en, ed, c
        root = math.sqrt(d)

        def fl(p, q):
            if not q:
                return float(p)
            if (p >= 0) == (q >= 0):
                return p + q * root
            return (p * p - q * q * d) / (p - q * root)

        self._fl = fl
        self._floats = fl(*ed), fl(*xd), fl(*c), fl(*en), fl(*xn)

    def _fh(self, a: int, n: int) -> tuple[tuple, tuple]:
        (enp, enq), (edp, edq) = self.en, self.ed
        (xnp, xnq), (xdp, xdq) = self.xn, self.xd
        return ((a * edp - n * enp, a * edq - n * enq),
                (a * xdp - n * xnp, a * xdq - n * xnq))

    def _cosh_line(self, a: int, n: int):
        """(X, perm, time): cosh of the distance from (a + i) / n to the
        line, in floats, the size perm of its error term, and its foot
        time."""
        fl, (ed, xd, c, _, _) = self._fl, self._floats
        (fp, fq), (hp, hq) = self._fh(a, n)
        f, h = fl(fp, fq), fl(hp, hq)
        fh, exd = f * h, ed * xd
        s = abs(fh + exd) / (n * c)
        time = 0.5 * math.log((f * f + ed * ed)
                              / (self.n0 * self.n0 * (h * h + xd * xd)))
        return math.sqrt(1 + s * s), (abs(fh) + abs(exd)) / (n * c), time

    def _cosh_distance(self, a: int, n: int, t0: float, t1: float):
        """(X, perm): cosh of the distance from (a + i) / n to the segment
        of times [t0, t1], in floats, and the size perm of its error term."""
        X, perm, time = self._cosh_line(a, n)
        past = t0 - time if time < t0 else max(0.0, time - t1)
        return X * math.cosh(past), perm

    def _exact(self, a: int, n: int) -> tuple:
        """(f, h, size, hh) in Z[sqrt d], with |M z|^2 = size / hh."""
        d, n0 = self.d, self.n0
        f, h = self._fh(a, n)
        size = tuple(s + t for s, t in zip(_mul(f, f, d), _mul(
            self.ed, self.ed, d)))  # |M z|^2 n0^2 (h^2 + xi_d^2)
        hh = tuple(n0 * n0 * (s + t) for s, t in zip(_mul(h, h, d), _mul(
            self.xd, self.xd, d)))  # n0^2 (h^2 + xi_d^2)
        return f, h, size, hh

    def _foot_sign(self, size: tuple, hh: tuple, t: Fraction) -> int:
        """The sign of (foot time - t), exactly: of size - hh e^{2t}."""
        return _exp_sign([(0, size), (2 * t, (-hh[0], -hh[1]))], self.d)

    def _near_line(self, n: int, f: tuple, h: tuple, rho: Fraction) -> bool:
        """Whether d((a + i) / n, line) <= rho, exactly: sinh d = |f h +
        eta_d xi_d| / (n c) <= sinh rho, squared and doubled, is 4 (f h +
        eta_d xi_d)^2 + 2 (n c)^2 <= (n c)^2 (e^{2 rho} + e^{-2 rho})."""
        d = self.d
        twice = tuple(2 * (s + t) for s, t in zip(_mul(f, h, d), _mul(
            self.ed, self.xd, d)))
        cc = tuple(n * s for s in self.c)
        m2 = _mul(cc, cc, d)
        lead = tuple(s + 2 * t for s, t in zip(_mul(twice, twice, d), m2))
        minus_m2 = (-m2[0], -m2[1])
        return _exp_sign([(0, lead), (2 * rho, minus_m2),
                          (-2 * rho, minus_m2)], d) <= 0

    def _within(self, a: int, n: int, t0: Fraction, t1: Fraction,
                rho: Fraction) -> bool:
        """Whether d((a + i) / n, segment [t0, t1]) <= rho, exactly: the
        distance to an end, or to the line when the foot lies between the
        ends, each compared as an exponential sum (`_exp_sign`)."""
        f, h, size, hh = self._exact(a, n)
        nc = tuple(n * self.n0 * s for s in self.c)
        minus_nc = (-nc[0], -nc[1])

        def near_end(t):
            return _exp_sign([(0, size), (2 * t, hh), (t + rho, minus_nc),
                              (t - rho, minus_nc)], self.d) <= 0

        if near_end(t0) or t1 != t0 and near_end(t1):
            return True
        if self._foot_sign(size, hh, t0) < 0 or \
                self._foot_sign(size, hh, t1) > 0:
            return False  # the foot lies past an end
        return self._near_line(n, f, h, rho)

    def chart_time(self, a: int, n: int, R: Fraction) -> Fraction | None:
        """The foot time of (a + i) / n snapped to the nearest quarter k/4,
        or None when the point lies further than R from the line; inside
        the band, by `_near_line` and by comparing |M z|^2 with
        e^{(2k +- 1)/4}, which Lindemann-Weierstrass keeps from a tie."""
        X, perm, time = self._cosh_line(a, n)
        keep_at, band = math.cosh(R), _BAND * X * (1 + perm)
        if X > keep_at + band or X >= keep_at - band and \
                not self._near_line(n, *self._fh(a, n), R):
            return None
        k = round(4 * time)
        side = 1 if 4 * time > k else -1
        if abs(4 * time - k) >= 0.5 - _BAND * (1 + abs(4 * time)):
            _, _, size, hh = self._exact(a, n)
            if self._foot_sign(size, hh, Fraction(2 * k + side, 8)) == side:
                k += side
        return Fraction(k, 4)

    def depth_bound(self, t: Fraction) -> float:
        """An upper bound on the depth of the ray's points up to time t:
        at most t, as g x0 has depth 0; and, at a surd w = g^-1 xi, at most
        log max(r, s(w), s(-1/w)) for the full line, where in the chart of
        g the line runs from -1/w to w with Euclidean radius r, which bounds
        its depth in the horoball at infinity, and s = `sup_projection` at
        infinity bounds d^pi_Y(-1/w, w) <= 2 max(s(-1/w), s(w)) at every
        other Y, the depth there being log(d^pi_Y / 2)."""
        bound = float(t)
        w = self.g.inverse().apply_boundary(self.xi)
        if isinstance(w, Surd):
            back = -w.inverse()
            top = max(self._fl(v.p, v.q) / v.r for v in (
                abs(w - back) / 2, sup_projection(HOROBALL_INF, w).value,
                sup_projection(HOROBALL_INF, back).value))
            bound = min(bound, math.log(top * (1 + _PAD)) + _PAD)
        return max(0.0, bound)

    def _point(self, t: Fraction):
        """A rational point near the time-t point M^-1(i e^t) = (eta_n +
        i e^t n0 xi_n) / (eta_d + i e^t n0 xi_d), in floats; None when the
        floats fail."""
        ed, xd, _, en, xn = self._floats
        try:
            e = math.exp(t) * self.n0
            z = complex(en, e * xn) / complex(ed, e * xd)
        except (OverflowError, ZeroDivisionError):
            return None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)
                and z.imag > 0):
            return None
        return Fraction(z.real), Fraction(z.imag)

    def fill(self, t0: Fraction, t1: Fraction, rho: Fraction, start: tuple,
             reach: float) -> list:
        """The orbit points within rho of the segment of times [t0, t1], as
        keys (a, n) in the order found: a breadth-first fill from the orbit
        point of `start` = (a, b, c, d) that expands every orbit point within
        `reach` of the segment (see the module docstring for the reach that
        makes it complete)."""
        f0, f1 = float(t0), float(t1)
        keep_at, reach_at = math.cosh(rho), math.cosh(reach)
        seen = {_orbit_ints(start)}
        queue, out = [start], []
        for v in queue:
            A, B, C, D = v
            a, n = A * C + B * D, C * C + D * D
            X, perm = self._cosh_distance(a, n, f0, f1)
            band = _BAND * X * (1 + perm)
            if X < keep_at - band or (X <= keep_at + band
                                      and self._within(a, n, t0, t1, rho)):
                out.append((a, n))
            if X - band > reach_at:
                continue
            for w in ((A, A + B, C, C + D), (A, B - A, C, D - C),
                      (B, B - A, D, D - C), (B, -A - B, D, -C - D)):
                key = (w[0] * w[2] + w[1] * w[3], w[2] * w[2] + w[3] * w[3])
                if key not in seen:
                    seen.add(key)
                    queue.append(w)
        return out


def tube_points(g: GroupElement, xi, params: ThickParams) -> list:
    """The orbit points within rho of the witness ray from g x0 toward xi
    over its times [0, t_max], as keys (a, n) of (a + i) / n, in the order
    found.  The fill starts at g x0, on the segment, and reaches 2 asinh(1/2)
    + max(rho, D) for D the ray's `depth_bound`."""
    ray = _Ray(g, xi)
    reach = _MID_GAP + max(float(params.rho),
                           ray.depth_bound(params.t_max)) + _PAD
    return ray.fill(Fraction(0), params.t_max, params.rho, _element(g), reach)


def orbit_points_near(g: GroupElement, xi, t, rho: Fraction) -> list:
    """The orbit points within rho of the time-t point of the witness ray
    from g x0 toward xi, as keys (a, n), in the order found.  The fill
    starts at `locate` of a rational point near the time-t point (at g when
    the floats fail) and reaches 2 asinh(1/2) + max(rho, L0), for L0 a bound
    on the start's distance to the point, which also bounds the point's
    depth."""
    ray, t = _Ray(g, xi), Fraction(t)
    near = ray._point(t)
    start = _element(g if near is None else locate(near))
    X, perm = ray._cosh_distance(*_orbit_ints(start), float(t), float(t))
    L0 = math.acosh(X * (1 + _BAND * (1 + perm)))
    return ray.fill(t, t, rho, start, _MID_GAP + max(float(rho), L0) + _PAD)


@dataclass
class CoarseFlowSample:
    """The CF_0 triples (x_-, v, xi_+) as the charts read them: `points`
    maps each forward endpoint xi_+, in the order first found, to its orbit
    points v as keys (a, n) of (a + i) / n, in the order first found (a dict
    used as an ordered set); `size` counts the triples."""

    params: ThickParams
    points: dict = field(default_factory=dict)
    size: int = 0


def sample_coarse_flow(params: ThickParams, generators_radius: int,
                       xi_set) -> CoarseFlowSample:
    """Enumerate CF_0 triples: for g in the word ball and thick xi, the
    orbit points within rho of the witness ray [g x0, xi) up to t_max."""
    sample = CoarseFlowSample(params)
    for g in word_ball(generators_radius):
        for xi in xi_set:
            near = tube_points(g, xi, params)
            # an endpoint enters with its first triple; g x0 is always one
            sample.points.setdefault(xi, {}).update(dict.fromkeys(near))
            sample.size += len(near)
    return sample


def flow_point(g: GroupElement, xi, tau, params: ThickParams) -> set:
    """iota_tau(g, xi): the orbit points within rho of the time-tau point of
    the witness ray from g x0 toward xi, as keys (a, n)."""
    return set(orbit_points_near(g, xi, tau, params.rho))


# -- flow-line charts -------------------------------------------------------


@dataclass
class FlowLineChart:
    """Orbit points near a common forward endpoint, with an arclength
    parameter along the canonical witness ray from the basepoint.

    The parameter of a member is intrinsic: its foot time log |M z| in the
    chart M of `_Ray(IDENTITY, xi_plus)`, snapped to the nearest quarter.
    Orbit points further than line_R from the carrying geodesic belong to
    other flow lines and are not admitted (both exact: `_Ray.chart_time`).

    The parameter map is a (2, 2 line_R + 1/4)-quasi-isometric embedding of
    the members into the reals.  Nearest-point projection onto a geodesic
    is 1-Lipschitz in H^2, a CAT(-1) space (Bridson-Haefliger II.2.4), and
    the foot time is the arclength of that projection, moved at most 1/8
    by the snap; so for members at distance d with parameters dt apart, dt
    <= d + 1/4, and through the two feet d <= 2 line_R + dt + 1/4.  Hence
    dt - 2 d <= 1/4 and d - 2 dt <= 2 line_R + 1/4."""

    xi_plus: object
    line_R: Fraction
    members: dict = field(default_factory=dict)  # (a, n) -> parameter t

    def __post_init__(self):
        self._ray = _Ray(IDENTITY, self.xi_plus)

    def add(self, key: tuple[int, int]):
        """Offer the orbit point (a + i) / n of key = (a, n)."""
        t = self._ray.chart_time(*key, self.line_R)
        if t is not None:
            self.members[key] = t


def build_charts(sample: CoarseFlowSample) -> dict:
    """One chart per forward endpoint of the sample, keyed by str(xi_+);
    members must sit within line_R = rho + 1 of the carrying geodesic
    (points further out belong to other flow lines), with the intrinsic
    arclength parameter."""
    line_R = sample.params.rho + 1
    charts = {}
    for xi, vs in sample.points.items():
        chart = charts[str(xi)] = FlowLineChart(xi, line_R)
        for v in vs:
            chart.add(v)
    return charts


# -- the long thin cover ----------------------------------------------------


@dataclass(frozen=True)
class CoverElement:
    """(chart cluster) x (parameter interval [lo, hi)): the flow points of
    the chart whose parameter lies in the interval."""

    chart_key: str
    lo: Fraction
    hi: Fraction
    family: int  # 0 or 1 (stagger offset)


@dataclass
class LongThinCover:
    elements: list
    charts: dict
    order_measured: int = 0
    longness_ok: bool = True
    _by_chart: dict = field(init=False, repr=False, default_factory=dict)
    _pullback: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        for U in self.elements:
            self._by_chart.setdefault(U.chart_key, []).append(U)

    def elements_containing(self, chart_key: str, t: Fraction):
        return [U for U in self._by_chart.get(chart_key, ())
                if U.lo <= t < U.hi]


def build_long_thin_cover(sample: CoarseFlowSample,
                          beta: Fraction) -> LongThinCover:
    """Two staggered families of parameter intervals of length 4*beta
    (offsets 0 and 2*beta) along each flow-line chart.  Order and
    beta-longness are measured on the sample."""
    if not sample.size:
        raise ValueError("empty coarse flow sample")
    beta = Fraction(beta)
    charts = build_charts(sample)
    elements = []
    for key, chart in charts.items():
        ts = list(chart.members.values())
        lo, hi = min(ts), max(ts)
        for fam, offset in ((0, Fraction(0)), (1, 2 * beta)):
            k = math.floor((lo - offset) / (4 * beta))
            start = offset + 4 * beta * k
            while start <= hi:
                elements.append(CoverElement(key, start, start + 4 * beta,
                                             fam))
                start += 4 * beta
    cover = LongThinCover(elements, charts)
    order = 0
    longness = True
    for key, chart in charts.items():
        for v, t in chart.members.items():
            hits = cover.elements_containing(key, t)
            order = max(order, len(hits))
            # beta-longness: the beta-ball around t in the parameter lies
            # inside a single element of one family
            if not any(U.lo <= t - beta and t + beta < U.hi for U in hits):
                longness = False
    cover.order_measured = order
    cover.longness_ok = longness
    return cover


# word-ball radius of the translates gamma that fsubset_check tries
_FSUBSET_RADIUS = 2


def fsubset_check(cover: LongThinCover) -> int:
    """Empirical VCyc-subset property: gamma U meets U only when gamma, in
    the word ball of radius _FSUBSET_RADIUS, stabilizes the chart's
    endpoint.  Returns the number of failures."""
    failures = 0
    for gamma in word_ball(_FSUBSET_RADIUS):
        if gamma == IDENTITY:
            continue
        for U in cover.elements:
            chart = cover.charts[U.chart_key]
            gxi = gamma.apply_boundary(chart.xi_plus)
            if gxi == chart.xi_plus:
                continue  # gamma in the endpoint stabilizer: exempt
            # gamma U consists of triples with forward endpoint gamma xi,
            # so gamma U meets U only if the translated chart collides
            # with U's own chart
            if str(gxi) == U.chart_key:
                failures += 1
    return failures


# -- pullback through the coarse flow --------------------------------------


def flow_elements(g: GroupElement, xi, tau, cover: LongThinCover,
                  params: ThickParams) -> frozenset:
    """The cover elements containing every flow point of (g, xi) at time
    tau on the chart of xi, the chart every flow triple belongs to, that
    is, whose pullback by iota_tau contains (g, xi); empty when the pair has
    no flow point.  Kept in the cover, so each iota_tau ball is filled once."""
    key, chart_key = (g, xi, tau, params), str(xi)
    if key not in cover._pullback:
        chart = cover.charts.get(chart_key)
        ts = {chart.members.get(v) if chart else None
              for v in flow_point(g, xi, tau, params)}
        cover._pullback[key] = frozenset() if not ts or None in ts else \
            frozenset.intersection(*(frozenset(cover.elements_containing(
                chart_key, t)) for t in ts))
    return cover._pullback[key]


def _element_order(U: CoverElement):
    return (U.chart_key, U.family, U.lo)


def _s_long_element(g: GroupElement, xi, S, tau, cover: LongThinCover,
                    params: ThickParams):
    """A cover element whose pullback contains (gs, xi) for every s in S,
    or None."""
    common = None
    for s in S:
        here = flow_elements(g * s, xi, tau, cover, params)
        common = here if common is None else common & here
        if not common:
            return None
    return min(common, key=_element_order)


def choose_tau(S, params: ThickParams, sample_pairs, cover: LongThinCover,
               tau_max: Fraction = Fraction(16)) -> dict:
    """Doubling search for a tau making every sampled thick pair S-long in
    the pulled-back cover.  `failed: not-found-within-budget` is reported
    when tau_max is reached; the underlying limit statement guarantees
    existence only asymptotically."""
    tau = params.beta
    report = {"tau_chosen": None, "attempts": [], "status": "not-found-within-budget"}
    while tau <= tau_max:
        failures = 0
        for g, xi in sample_pairs:
            if _s_long_element(g, xi, S, tau, cover, params) is None:
                failures += 1
        report["attempts"].append({"tau": str(tau), "failures": failures})
        if failures == 0:
            report["tau_chosen"] = str(tau)
            report["status"] = "ok"
            return report
        tau *= 2
    return report


# -- the end-to-end theorem check ------------------------------------------


def verify_thick_theorem(S, params: ThickParams, generators_radius: int,
                         xi_set, pinned_order: int | None = None,
                         tau_max: Fraction = Fraction(16)) -> dict:
    """Build the sample, the long thin cover, choose tau, pull back, and
    check order and S-longness on the thick pairs."""
    thick_xis = [xi for xi in xi_set if isinstance(
        classify(IDENTITY, xi, params.Theta), ThickCertificate)]
    sample = sample_coarse_flow(params, generators_radius, thick_xis)
    cover = build_long_thin_cover(sample, params.beta)
    pairs = [(g, xi) for g in word_ball(max(1, generators_radius - 2))
             for xi in thick_xis]
    tau_rep = choose_tau(S, params, pairs, cover, tau_max)
    fsub = fsubset_check(cover)
    order_extended = None
    extension_restricts = None
    if tau_rep["status"] == "ok":
        tau = Fraction(tau_rep["tau_chosen"])
        order_extended = max((len(flow_elements(g, xi, tau, cover, params))
                              for g, xi in pairs), default=0)
        # holds by construction: distinct pairs, elements a function of each
        extension_restricts = True
    report = {
        "params": {"Theta": str(params.Theta), "rho": str(params.rho),
                   "beta": str(params.beta),
                   "D_max": params.depth_bound},
        "sample_size": sample.size,
        "charts": len(cover.charts),
        # no chart is rejected (see FlowLineChart); perfbench reads the key
        "rejected_charts": [],
        "order_measured": cover.order_measured,
        "order_extended": order_extended,
        "extension_restricts": extension_restricts,
        "longness_ok": cover.longness_ok,
        "tau": tau_rep,
        "fsubset_failures": fsub,
        "undecided_xi": 0,  # classify always decides
    }
    if pinned_order is not None:
        worst = max(cover.order_measured, order_extended or 0)
        report["order_within_pin"] = worst <= pinned_order
    return report
