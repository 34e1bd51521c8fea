"""The projection axioms of the Farey family and exact large-projection
enumeration.

The Farey family is the Ford horoballs of SL2(Z) with Delta(Y) the whole
boundary circle.  Its axioms (P1)-(P4) are checked exactly on rational
data through the integer closed form `proj_dist_int`: a distance is the
terms (n, f_u, f_v) of n / (f_u f_v), and the checks cross-multiply
instead of building Fractions ((P2) fails exactly when n_uv f_w + n_vw f_u
< n_uw f_v).  (P4) compares the enumeration, as a full set, with a
brute-force oracle that tests n theta.den > theta.num f_u f_v at every
q up to the pair's proved window m (1/theta + 1/n), for m the larger
endpoint denominator and n = |a e - b c|, and at every p within 2 /
(theta q) of q u or q v.  The Behrstock constant (P3) comes from the
exact certificate `pair_maxmin`: a pair's sup-min is 1 / |p'q - pq'|, at
most 1 and equal to 1 at Farey neighbours.  Large projections are
enumerated exactly, always at the cusp: one endpoint is moved to infinity,
where a rational other endpoint a/b leaves the integer inequality
q * |q*a - p*b| < b / theta, which only small mixes of consecutive
convergents meet (Worley), and for theta >= 2 only the convergents
themselves (Legendre): one Euclid walk at every theta.  A quadratic surd
leaves its convergents, whose values and supremum are exact in Q(sqrt(D))
by the continued-fraction kernel (theta >= 2).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .certified import INFINITE
from .hyperbolic import (
    HOROBALL_INF,
    Horoball,
    chart_point,
    normalizer,
    proj_dist_int,
    rational_pair,
)
from .surd import INFINITY, Surd


class WindowRequiredError(ValueError):
    """No finite exact answer: large projections accumulate, or both
    endpoints are irrational."""


class FareyFamily:
    """Ford horoballs acting on the boundary circle; Delta(Y) is everything."""

    def distance_terms(self, Y, u, v) -> tuple[int, int, int]:
        """d^pi_Y(u, v) as the integer terms (n, f_u, f_v) of
        `proj_dist_int`, for points given as their `rational_pair`s: the
        value is n / (f_u f_v), infinite at a zero factor."""
        return proj_dist_int(Y, u, v)


# -- exact enumeration of large projections --------------------------------


def enumerate_large_projections(u, v, theta: Fraction):
    """All Y with d^pi_Y(u, v) > theta, as (Horoball, value) pairs sorted
    by (q, p).

    Horoballs whose tangency coincides with u or v are excluded (there the
    distance is infinite by convention and the horoball is not a valid
    index against itself).  Computed at the cusp: d^pi is SL2(Z)-invariant,
    so a rational endpoint is moved to infinity by `normalizer`, the hits
    against the image w of the other endpoint are enumerated there and
    translated back.  Exact throughout: for rational w by one Euclid walk
    (`rational_hits`, any theta), for a quadratic surd w by the
    continued-fraction kernel (theta >= 2).  Two irrational endpoints
    have no kernel and raise WindowRequiredError, as do surd hits that
    accumulate.
    """
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError("theta must be positive")
    u, v = chart_point(u), chart_point(v)
    if isinstance(u, Surd):
        u, v = v, u  # d^pi_Y is symmetric in its endpoints
    if isinstance(u, Surd):
        raise WindowRequiredError("two irrational endpoints")
    if u == v:
        return []
    if u is INFINITY:
        hits = _enumerate_at_infinity(v, theta)
    else:
        m = normalizer(Horoball.at(u))
        back = m.inverse()
        hits = [(Y.translate(back), d) for Y, d in
                _enumerate_at_infinity(m.apply_boundary(v), theta)]
    hits.sort(key=lambda t: (t[0].q, t[0].p))
    return hits


def _enumerate_at_infinity(w, theta: Fraction):
    if isinstance(w, Surd):
        return enumerate_large_projections_windowed(w, theta)[0]
    b = w.denominator
    return [(Horoball(p, q), Fraction(b, q * e))
            for p, q, e in rational_hits(w.numerator, b, theta)]


def rational_hits(a: int, b: int, theta: Fraction) -> list:
    """Hits for the pair (infinity, a/b), b > 0, at any theta > 0, as the
    integer triples (p, q, e) of Y = p/q with residual e = |q*a - p*b|, by
    q, then |p|, then p, from one Euclid walk of a/b.

    A value b / (q e) > theta means |a/b - p/q| < c / q^2 with c = 1/theta,
    so p/q = r (p_m, q_m) +- s (p_{m-1}, q_{m-1}) for consecutive
    convergents and integers r, s >= 0 with r s < 2c (Worley, Estimating
    |alpha - p/q|, J. Austral. Math. Soc. 1981; Theorem 1 of Dujella,
    Continued fractions and RSA with small secret exponent, 2004).  With
    gcd(r, s) = 1 every such mix is in lowest terms.  At theta
    >= 2 no mix has r s theta < 2: the hits are convergents (Legendre), and
    the walk appends them in order, no two sharing a denominator (both
    within 1/(2 q^2) of a/b, p/q and p'/q would have |p - p'| < 1/q).  The
    extra convergent of the long expansion [..., a_n - 1, 1], the mix
    (p_n - p_{n-1}) / (q_n - q_{n-1}), has value q_n / (q_n - q_{n-1}) <=
    2.  Only below 2, with mixes among the hits, is the list sorted.  The
    residual of p_n/q_n is the Euclid remainder r_{n+1}, and the walk ends
    at r = 0, at a/b itself: O(log b) steps, each testing O((2/theta)
    log(2/theta)) mixes below 2.
    """
    tn, td = theta.numerator, theta.denominator
    cap = (2 * td - 1) // tn  # r s theta < 2 exactly when r s <= cap
    mixes = [(r, s) for r in range(1, cap + 1)
             for k in range(1, cap // r + 1) if math.gcd(r, k) == 1
             for s in (k, -k)]
    hits, extra = [], set()
    p, p_prev, q, q_prev = 1, 0, 0, 1
    x, e = a, b
    while True:
        t, (x, e) = x // e, (e, x % e)
        p, p_prev, q, q_prev = t * p + p_prev, p, t * q + q_prev, q
        for r, s in mixes:
            mp, mq = r * p + s * p_prev, r * q + s * q_prev
            if mq < 0:
                mp, mq = -mp, -mq
            me = abs(mq * a - mp * b)
            if mq and me and mq * me * tn < b * td:
                extra.add((mp, mq, me))
        if e == 0:
            break
        if q * e * tn < b * td:
            hits.append((p, q, e))
    if extra:
        hits = sorted(extra.union(hits),
                      key=lambda h: (h[1], abs(h[0]), h[0]))
    return hits


def finiteness_window(u, v, theta: Fraction) -> int:
    """The largest denominator q of a Y = p/q with d^pi_Y(u, v) > theta,
    for rational u = a/b and v = c/e (infinity = (1, 0)): with n =
    |a e - b c| and m = max(b, e), every such q <= m (1/theta + 1/n).

    A hit has positive f_u = |q a - p b| and f_v = |q c - p e| with theta
    f_u f_v < n.  For b, e > 0, |u - v| <= |u - p/q| + |v - p/q| gives
    q n <= f_u e + f_v b, which on that hyperbola is at most max(e + b n /
    theta, b + e n / theta).  At u = infinity, f_u = q and n = e, so q <
    e / theta.  At u = v, n = 0 and nothing is large: the window is 0."""
    (a, b), (c, e) = rational_pair(u), rational_pair(v)
    n = abs(a * e - b * c)
    if n == 0:
        return 0
    tn, td = theta.numerator, theta.denominator
    return max(b, e) * (td * n + tn) // (tn * n)


def brute_force_large_projections(u, v, theta: Fraction, qmax=None):
    """Oracle: test n theta.den > theta.num f_u f_v in integers at every
    horoball p/q with q <= `finiteness_window` (and q <= qmax, if given)
    whose p can hold a hit, independent of the Euclid walk.

    With x = |q u - p| and y = |q v - p| for finite u and v, a hit has
    x y < |u - v| / theta while x + y >= q |u - v|, so min(x, y) < 2 /
    (theta q); at u = infinity it has q y < 1 / theta.  So p lies within
    k / (theta q) of q x for a finite endpoint x, k the number of finite
    endpoints."""
    u, v = chart_point(u), chart_point(v)
    top = finiteness_window(u, v, theta)
    if qmax is not None:
        top = min(top, qmax)
    tn, td = theta.numerator, theta.denominator
    U, V = rational_pair(u), rational_pair(v)
    finite = [w for w in (U, V) if w[1] != 0]
    k = len(finite)
    candidates = [(HOROBALL_INF.p, HOROBALL_INF.q)] if k == 2 else []
    for q in range(1, top + 1):
        ps = set()
        for a, b in finite:
            # (q a / b -+ k / (theta q)) over the denominator b tn q
            den, mid, pad = b * tn * q, q * q * a * tn, k * td * b
            ps.update(range((mid - pad) // den, -(-(mid + pad) // den) + 1))
        candidates += [(p, q) for p in ps if math.gcd(p, q) == 1]
    hits = []
    for Y in candidates:
        n, fu, fv = proj_dist_int(Y, U, V)
        if fu and fv and n * td > tn * fu * fv:
            hits.append((Horoball(*Y), Fraction(n, fu * fv)))
    hits.sort(key=lambda t: (t[0].q, t[0].p))
    return hits


# -- the continued-fraction kernel at the cusp for quadratic surds ---------
#
# For w irrational, d^pi_Y(oo, w) = 1 / (q^2 |w - p/q|) at Y = p/q, so a
# value above 2 means |w - p/q| < 1/(2 q^2), and by Legendre's theorem p/q
# is then a convergent p_n/q_n of w.  There the value is
#     alpha_{n+1} + q_{n-1}/q_n,
# alpha the complete quotients (Cusick-Flahive, The Markoff and Lagrange
# Spectra, ch. 1).  Once the expansion is periodic, alpha_{n+1} depends on n
# only through its residue class mod the period, and along a class
# y_n = q_{n-1}/q_n iterates one Moebius map y -> 1/(a + y) per quotient.
# Over an even number K of quotients that map is increasing, so along each
# class mod K the values are monotone, tending to the limit
#     alpha - alpha'  (alpha' the conjugate: y_n -> -alpha'),
# which is irrational and so never equals a rational threshold.


def cusp_projections(w: Surd):
    """(Horoball(p_n, q_n), d^pi_{p_n/q_n}(oo, w)) for n = 0, 1, 2, ...,
    without end, for a quadratic surd w; every value is an exact Surd."""
    return _convergent_values(*w.expansion())


def _convergent_values(terms, alphas, start):
    period = len(terms) - start
    p, p_prev, q, q_prev = 1, 0, 0, 1  # (p_{n-1}, p_{n-2}, q_{n-1}, q_{n-2})
    n = 0
    while True:
        a = terms[_periodic(n, start, period)]
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        alpha = alphas[_periodic(n + 1, start, period)]
        yield Horoball(p, q), alpha + Fraction(q_prev, q)
        n += 1


def _periodic(i: int, start: int, period: int) -> int:
    return i if i < start else start + (i - start) % period


def _cusp_classes(w: Surd):
    """(n0, K, head, limits, rest): from n0 on, the convergent values fall
    into K monotone residue classes; head lists the first n0 + K (Horoball,
    value) pairs, so it holds the first member of every class, limits lists
    the class limits, one per residue class mod the period, and rest yields
    the values after head."""
    terms, alphas, start = w.expansion()
    period = len(terms) - start
    n0 = max(start - 1, 0)
    K = period if period % 2 == 0 else 2 * period
    rest = _convergent_values(terms, alphas, start)
    head = list(itertools.islice(rest, n0 + K))
    limits = [alpha - alpha.conjugate() for alpha in alphas[start:]]
    return n0, K, head, limits, rest


def _cusp_sup(head, limits) -> "SupResult":
    """sup_Y d^pi_Y(oo, w): a monotone class peaks at its first member or
    at its limit, so the maximum of head and limits is the supremum."""
    value, witness = head[0][1], head[0][0]
    for Y, d in head[1:]:
        if d > value:
            value, witness = d, Y
    for limit in limits:
        if limit > value:
            value, witness = limit, None
    return SupResult(value, witness)


def enumerate_large_projections_windowed(w: Surd, theta: Fraction):
    """The exact kernel at the cusp: every Y with d^pi_Y(oo, w) > theta,
    for a quadratic surd w and theta >= 2.

    Returns (hits, undecided, sup): hits are (Horoball(p_n, q_n), Surd
    value) pairs in convergent order, which is (q, p) order; undecided, the
    candidates left undecided, is always empty, as every comparison is
    exact; sup is the exact SupResult of sup_projection.  Raises
    WindowRequiredError("large projections accumulate") when a residue
    class tends to a limit above theta, as infinitely many convergents
    then exceed it, and ValueError for theta < 2, where hits need not be
    convergents.
    """
    theta = Fraction(theta)
    if theta < 2:
        raise ValueError("the cusp kernel needs theta >= 2")
    n0, K, head, limits, rest = _cusp_classes(w)
    if any(limit > theta for limit in limits):
        raise WindowRequiredError("large projections accumulate")
    # a monotone class with its limit below theta stays at or below theta
    # from its first member at or below theta on
    hits, open_classes = [], set(range(K))
    for n, (Y, d) in enumerate(itertools.chain(head, rest)):
        if d > theta:
            hits.append((Y, d))
        elif n >= n0:
            open_classes.discard((n - n0) % K)
            if not open_classes:
                break
    return hits, [], _cusp_sup(head, limits)


@dataclass(frozen=True)
class SupResult:
    """The exact supremum of Y -> d^pi_Y(X, xi) over horoballs Y != X.

    `value` is INFINITE at a rational xi (approached at its tangency
    horoball, the witness), 0 at the tangency of X itself, and a Surd at a
    quadratic surd xi.  `witness` attains the value, or is None when the
    supremum is the limit of a residue class of convergents.  A surd
    supremum is irrational, so it never ties with a rational threshold.
    """

    value: object
    witness: Horoball | None = None

    def above(self, threshold: Fraction) -> bool:
        """sup > threshold, exactly."""
        return self.value is INFINITE or self.value > threshold

    def below(self, threshold: Fraction) -> bool:
        """sup < threshold, exactly."""
        return self.value is not INFINITE and self.value < threshold


def sup_projection(X: Horoball, xi) -> SupResult:
    """Exact supremum of d^pi_Y(X, xi) over horoballs Y != X.

    Computed at the cusp: X is moved to infinity by `normalizer`, so xi
    becomes w.  A rational w gives an infinite supremum at its tangency
    horoball; a quadratic surd w gives the maximum of the convergent values
    up to the first member of every monotone residue class and of the
    class limits (see `_cusp_sup`).  The witness is translated back to the
    chart of X.
    """
    m = normalizer(X)
    w = m.apply_boundary(xi)
    if w is INFINITY:
        return SupResult(Fraction(0))  # xi is the tangency of X
    if isinstance(w, Surd):
        _, _, head, limits, _ = _cusp_classes(w)
        sup = _cusp_sup(head, limits)
    else:
        sup = SupResult(INFINITE, Horoball.at(w))
    if sup.witness is None:
        return sup
    return SupResult(sup.value, sup.witness.translate(m.inverse()))


def pair_maxmin(Y: Horoball, Yp: Horoball):
    """sup over xi of min{d^pi_Y(Y', xi), d^pi_Y'(Y, xi)}, exact.

    Moving Y to infinity sends Y' to some p/q; the two distances become
    |p/q - xi| and 1/(q^2 |xi - p/q|), whose min is maximized where they
    cross, at |xi - p/q| = 1/q.  The value 1/q is the reciprocal of the
    integer |p'q - pq'|.  Returns (value, witness xi in the original chart).
    """
    if Y == Yp:
        raise ValueError("distinct horoballs required")
    m = normalizer(Y)
    Ypp = Yp.translate(m)  # finite: only Y itself goes to infinity
    q = Ypp.q
    xi_hat = Fraction(Ypp.p + 1, q)
    return Fraction(1, q), m.inverse().apply_boundary(xi_hat)


# -- axiom reports ---------------------------------------------------------


@dataclass
class AxiomReport:
    axiom: str
    samples: int = 0
    violations: int = 0
    constant: float | None = None
    witnesses: list = field(default_factory=list)
    undecided: int = 0
    exact_constant: Fraction | None = None  # (P3): the exact maximum

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "samples": self.samples,
            "violations": self.violations,
            "constant": None if self.constant is None else float(self.constant),
            "witnesses": self.witnesses,
            "undecided": self.undecided,
        }


def _hb_str(Y: Horoball) -> str:
    return "oo" if Y.q == 0 else f"{Y.p}/{Y.q}"


def check_symmetry(family: FareyFamily, sample) -> AxiomReport:
    """(P1): d^pi_Y(X, Z) = d^pi_Y(Z, X), exact on rational data: the two
    values compare by cross-multiplying, and infinite equals infinite."""
    rep = AxiomReport("P1")
    for (Y, u, v) in sample:
        rep.samples += 1
        P, U, V = map(rational_pair, (Y, u, v))
        n1, fu1, fv1 = family.distance_terms(P, U, V)
        n2, fu2, fv2 = family.distance_terms(P, V, U)
        d1, d2 = fu1 * fv1, fu2 * fv2  # 0 means infinite
        if (d1 == 0) != (d2 == 0) or n1 * d2 != n2 * d1:
            rep.violations += 1
            rep.witnesses.append({"Y": _hb_str(Y), "u": str(u), "v": str(v)})
    return rep


def check_triangle(family: FareyFamily, sample) -> AxiomReport:
    """(P2): d^pi_Y(X, Z) + d^pi_Y(Z, xi) >= d^pi_Y(X, xi), exact.

    With values n / (f f') and one factor per endpoint, (P2) fails exactly
    when n_uv f_w + n_vw f_u < n_uw f_v.  That needs no infinite case: a
    zero factor is an infinite side, where (P2) holds, and the test stays
    false there: its two sides are equal at u = Y (n_uv = f_v, n_uw = f_w)
    and at w = Y, and its right side is 0 at v = Y."""
    rep = AxiomReport("P2")
    for (Y, u, v, w) in sample:
        rep.samples += 1
        P, U, V, W = map(rational_pair, (Y, u, v, w))
        n_uv, f_u, f_v = family.distance_terms(P, U, V)
        n_vw, _, f_w = family.distance_terms(P, V, W)
        n_uw = family.distance_terms(P, U, W)[0]
        if n_uv * f_w + n_vw * f_u < n_uw * f_v:
            rep.violations += 1
            rep.witnesses.append(
                {"Y": _hb_str(Y), "u": str(u), "v": str(v), "w": str(w)})
    return rep


def check_behrstock(family: FareyFamily, sample,
                    theta: Fraction | None = None) -> AxiomReport:
    """(P3): min{d^pi_Y(Y', xi), d^pi_Y'(Y, xi)} stays below theta.

    Reports the measured maximum of the min over the sample as `constant`.
    Values n / d compare by cross-multiplying; a Fraction is built only for
    a new maximum.
    """
    rep = AxiomReport("P3")
    best = Fraction(0)
    for (Y, Yp, xi) in sample:
        if Y == Yp:
            continue
        rep.samples += 1
        P, Q, X = map(rational_pair, (Y, Yp, xi))
        n1, f1, g1 = family.distance_terms(P, Q, X)
        n2, f2, g2 = family.distance_terms(Q, P, X)
        d1, d2 = f1 * g1, f2 * g2  # 0 means infinite
        if d1 == 0 and d2 == 0:
            rep.violations += 1  # cannot happen for distinct tangencies
            continue
        # the min, an infinite value giving way to the finite one
        n, d = (n2, d2) if d1 == 0 or (d2 and n2 * d1 < n1 * d2) else (n1, d1)
        if n * best.denominator > best.numerator * d:
            best = Fraction(n, d)
            rep.witnesses = [{
                "Y": _hb_str(Y), "Y'": _hb_str(Yp), "xi": str(xi),
                "min": float(best)}]
        if theta is not None and \
                n * theta.denominator >= theta.numerator * d:
            rep.violations += 1
    rep.constant = float(best)
    rep.exact_constant = best
    return rep


def check_finiteness(family: FareyFamily, pairs, theta: Fraction,
                     qmax=None) -> AxiomReport:
    """(P4): the exact enumeration equals the brute force over the pair's
    `finiteness_window`, as full sets.  An optional cap qmax compares
    both only up to q <= qmax, and so misses a fast path that drops the
    hits beyond it."""
    rep = AxiomReport("P4")
    for (u, v) in pairs:
        rep.samples += 1
        fast = {(Y.p, Y.q) for Y, _ in enumerate_large_projections(u, v, theta)}
        if qmax is not None:
            fast = {k for k in fast if k[1] <= qmax}
        slow = {(Y.p, Y.q)
                for Y, _ in brute_force_large_projections(u, v, theta, qmax)}
        if fast != slow:
            rep.violations += 1
            rep.witnesses.append({
                "u": str(u), "v": str(v),
                "missing": sorted(slow - fast)[:5],
                "extra": sorted(fast - slow)[:5]})
    return rep


# -- samplers --------------------------------------------------------------


def stern_brocot_horoball(rng: random.Random, depth: int = 12) -> Horoball:
    """Uniform random descent in the Stern-Brocot tree, depth <= depth."""
    lo, hi = (0, 1), (1, 0)
    steps = rng.randint(0, depth)
    p, q = 1, 1
    for _ in range(steps):
        if rng.random() < 0.5:
            hi = (p, q)
        else:
            lo = (p, q)
        p, q = lo[0] + hi[0], lo[1] + hi[1]
    shift = rng.randint(-2, 2)
    return Horoball(p + shift * q, q)


def random_rational(rng: random.Random, qmax: int = 50) -> Fraction:
    q = rng.randint(1, qmax)
    p = rng.randint(-2 * q, 2 * q)
    return Fraction(p, q)


def sample_triples_rational(rng: random.Random, n: int, qmax: int = 50):
    """Triples (Y, u, v) for (P1) and quadruples for (P2)."""
    for _ in range(n):
        Y = stern_brocot_horoball(rng, 8)
        u = random_rational(rng, qmax) if rng.random() < 0.9 else INFINITY
        v = random_rational(rng, qmax) if rng.random() < 0.9 else INFINITY
        yield (Y, u, v)
