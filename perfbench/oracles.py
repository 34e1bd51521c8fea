"""Exact checks made apart from horocover, from integers and rationals only.

Nothing here imports horocover, so no change to the program can make these
checks agree with it by construction.  Boundary points and horoballs are
integer pairs (num, den) in lowest terms with den >= 0; (1, 0) is infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction


def proj_dist(Y, u, v):
    """d^pi_Y(u, v) = |a e - c b| / (|q a - p b| |q c - p e|) for Y = p/q,
    u = a/b, v = c/e; None when u or v is the tangency of Y (infinite)."""
    (p, q), (a, b), (c, e) = Y, u, v
    fu, fv = abs(q * a - p * b), abs(q * c - p * e)
    if fu == 0 or fv == 0:
        return None
    return Fraction(abs(a * e - c * b), fu * fv)


def behrstock_max(triples) -> Fraction:
    """max over (Y, Y', xi) of min{d^pi_Y(Y', xi), d^pi_Y'(Y, xi)}, where an
    infinite distance gives way to the finite one."""
    best = Fraction(0)
    for Y, Yp, xi in triples:
        vals = [d for d in (proj_dist(Y, Yp, xi), proj_dist(Yp, Y, xi))
                if d is not None]
        if vals:
            best = max(best, min(vals))
    return best


def act(g, x):
    """The Moebius action of g = (a, b, c, d) on the boundary point x."""
    a, b, c, d = g
    num, den = a * x[0] + b * x[1], c * x[0] + d * x[1]
    if den == 0:
        return (1, 0)
    if den < 0:
        num, den = -num, -den
    k = math.gcd(num, den)
    return (num // k, den // k)


def count_at_infinity(samples) -> int:
    """How many (g, xi) have g^-1 xi = infinity: for g = (a, b, c, d),
    g^-1 = (d, -b, -c, a), whose denominator at xi = n/m is a m - c n."""
    return sum(1 for (a, _b, c, _d), (n, m) in samples if a * m - c * n == 0)


# -- quadratic irrationals x + y sqrt(D), D squarefree ----------------------


def _squarefree(n: int) -> tuple[int, int]:
    """(s, D) with n = s^2 D and D squarefree."""
    s, f = 1, 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
            s *= f
        f += 1
    return s, n


def _sign(x: Fraction, y: Fraction, D: int) -> int:
    """Sign of x + y sqrt(D), exactly."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > y * y * D else sy


def cf_values(p: int, q: int, d: int, r: int, periods: int = 4):
    """d^pi_Y(oo, w) at the convergents Y of w = (p + q sqrt d)/r, and the
    limits those values tend to.

    At the n-th convergent the value is alpha_{n+1} + q_{n-1}/q_n, with
    alpha the complete quotient.  The expansion is eventually periodic, so
    along each residue class mod the period the values tend to a limit.
    Returns (D, values, limits): values lists (x, y, (p', q')) for the
    convergents of the preperiod and the first `periods` periods, limits
    lists (x, y), each number being x + y sqrt(D).
    """
    if q == 0:
        raise ValueError("rational point: the supremum is infinite")
    # w = (P + sqrt(N)) / Q with Q | N - P^2
    P, N, Q = (p, q * q * d, r) if q > 0 else (-p, q * q * d, -r)
    if (N - P * P) % Q:
        P, N, Q = P * abs(Q), N * Q * Q, Q * abs(Q)
    s, D = _squarefree(N)
    root = math.isqrt(N)
    quotients, alphas, seen = [], [], {}
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        alphas.append((Fraction(P, Q), Fraction(s, Q)))
        a = (P + root + (0 if Q > 0 else 1)) // Q
        quotients.append(a)
        P = a * Q - P
        Q = (N - P * P) // Q
    start = seen[(P, Q)]
    period = len(quotients) - start

    def periodic(k):
        return k if k < start else start + (k - start) % period

    values = []
    h0, h1, k0, k1 = 1, 0, 0, 1  # p_{n-1}, p_{n-2}, q_{n-1}, q_{n-2}
    for n in range(start + periods * period + 1):
        a = quotients[periodic(n)]
        h0, h1, k0, k1 = a * h0 + h1, h0, a * k0 + k1, k0
        x, y = alphas[periodic(n + 1)]
        values.append((x + Fraction(k1, k0), y, (h0, k0)))
    # q_{n-1}/q_n = [0; a_n, ..., a_1]; along one residue class it tends to
    # the purely periodic [0; B, B, ...], B the period read backwards from n
    limits = []
    for n in range(start + period, start + 2 * period):
        h, hp, k, kp = 1, 0, 0, 1
        for j in range(period):
            b = quotients[periodic(n - j)]
            h, hp, k, kp = b * h + hp, h, b * k + kp, k
        # y = [B; y] solves k y^2 + (kp - h) y - hp = 0, and the limit is
        # 1/y = (sqrt(disc) - (h - kp)) / (2 hp)
        t, Dd = _squarefree((h - kp) ** 2 + 4 * k * hp)
        if Dd != D:
            raise ArithmeticError("limit left the quadratic field")
        x, y = alphas[periodic(n + 1)]
        limits.append((x + Fraction(kp - h, 2 * hp), y + Fraction(t, 2 * hp)))
    return D, values, limits


def cf_sup(p: int, q: int, d: int, r: int):
    """Supremum of d^pi_Y(oo, w) over horoballs Y for w = (p + q sqrt d)/r.

    Only convergents matter once the supremum exceeds 2: d^pi_Y > 2 means
    |w - p'/q'| < 1/(2 q'^2), and by Legendre p'/q' is then a convergent.
    Returns (x, y, D, witness): the supremum is x + y sqrt(D), attained at
    the convergent witness = (p', q'), or a limit when witness is None.
    """
    D, values, limits = cf_values(p, q, d, r)
    best = None
    for x, y, conv in values + [(x, y, None) for x, y in limits]:
        if best is None or _sign(x - best[0], y - best[1], D) > 0:
            best = (x, y, conv)
    return best[0], best[1], D, best[2]


def quadratic_below(x: Fraction, y: Fraction, D: int, bound: Fraction) -> bool:
    """x + y sqrt(D) < bound, exactly."""
    return _sign(x - bound, y, D) < 0
