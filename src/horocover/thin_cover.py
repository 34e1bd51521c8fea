"""The thin-part cover: theta ladder, equivariant Z and Y_i, the sets U(Y,i).

Everything is defined in a base chart: the basepoint index X is the horoball
at infinity, and all operations at (g, xi) reduce to (e, g^{-1} xi) with
indices translated by g^{-1}.  Equivariance is therefore definitional.  The
selection Z(e, xi) is the deterministic argmax of d^pi_Y(X, xi) with
lexicographic (q, p) tie-breaks, preferring values above Theta_5; one walk
of the linear order of large-projection vertices toward Z gives Y_1 and Y_2.
Membership in U(Y, i) is certified on explicit delta-intervals, a sound
under-approximation of the interior.  S-longness runs each translate gs on
integer pairs (its point s^-1 g^-1 xi, one Euclid walk for the chain, Y_1,
Y_2, a step per certificate), and disjointness sweeps those integers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .hyperbolic import (
    HOROBALL_INF,
    GroupElement,
    Horoball,
    rational_pair,
    word_ball,
)
from .projection_data import (
    WindowRequiredError,
    enumerate_large_projections,
    enumerate_large_projections_windowed,
    rational_hits,
    sup_projection,
)
from .surd import INFINITY, Surd

BASE_INDEX = HOROBALL_INF  # X_Y, the horoball at the basepoint cusp


class LadderAuditError(ValueError):
    """The theta ladder fails one of the inequalities the proofs need."""


@dataclass(frozen=True)
class ThetaLadder:
    """Theta_i = 10*(i+1)*(theta + theta_S), i = 0..5; Theta_i, the margins
    Theta_i + theta_P and the floor Theta_4 / 2 also as integer pairs."""

    theta: Fraction
    theta_S: Fraction
    theta_P: Fraction  # measured projection-complex margin constant
    _values: tuple = field(init=False, repr=False, compare=False)
    _levels: tuple = field(init=False, repr=False, compare=False)
    _margins: tuple = field(init=False, repr=False, compare=False)
    _floor4: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Th = tuple(10 * (i + 1) * (self.theta + self.theta_S)
                   for i in range(6))
        for name, value in (
                ("_values", Th), ("_floor4", (Th[4] / 2).as_integer_ratio()),
                ("_levels", tuple(t.as_integer_ratio() for t in Th)),
                ("_margins", tuple((t + self.theta_P).as_integer_ratio()
                                   for t in Th))):
            object.__setattr__(self, name, value)
        self.audit()

    def Theta(self, i: int) -> Fraction:
        if not 0 <= i <= 5:
            raise ValueError("ladder index out of range")
        return self._values[i]

    def audit(self):
        """The rational inequalities the cover proofs rely on."""
        th, ts, tp = self.theta, self.theta_S, self.theta_P
        Th = self._values
        checks = [
            th > 0,
            ts >= 0,
            all(Th[i] < Th[i + 1] for i in range(5)),
            Th[0] > tp + 2 * th + ts,
            all(Th[i + 1] - Th[i] > 2 * ts + th for i in range(5)),
            Th[5] - Th[3] - ts > th,
            Th[4] - Th[3] > th + ts,
        ]
        if not all(checks):
            raise LadderAuditError(f"ladder audit failed: {checks}")

    def to_dict(self):
        return {"theta": str(self.theta), "theta_S": str(self.theta_S),
                "theta_P": str(self.theta_P),
                **{f"Theta_{i}": str(v) for i, v in enumerate(self._values)}}


@dataclass(frozen=True)
class FinitePart:
    """A finite symmetric subset of the group, with its basepoint orbit."""

    elements: tuple  # GroupElements, canonical order

    @staticmethod
    def word_ball(radius: int) -> "FinitePart":
        return FinitePart(tuple(word_ball(radius)))

    def __post_init__(self):
        els = set(self.elements)
        if any(g.inverse() not in els for g in els):
            raise ValueError("finite part must be symmetric")
        object.__setattr__(
            self, "elements",
            tuple(sorted(els, key=lambda g: (g.a, g.b, g.c, g.d))))

    def orbit(self) -> list[Horoball]:
        return sorted({BASE_INDEX.translate(g) for g in self.elements},
                      key=lambda Y: (Y.q, Y.p))


# theta_S's enumeration floor: a certified upper bound on a pair without hits
_THETA_S_FLOOR = Fraction(1, 4)


def theta_S(S: FinitePart, theta_P: Fraction) -> Fraction:
    """sup of d^pi_Y(X, X') over X, X' in the S-orbit of the basepoint
    index, inflated by the measured complex margin theta_P."""
    orbit = S.orbit()
    if len(orbit) <= 1:
        return Fraction(0)
    return theta_P + max([_THETA_S_FLOOR] + [
        d for i, A in enumerate(orbit) for B in orbit[i + 1:]
        for _, d in enumerate_large_projections(A, B, _THETA_S_FLOOR)])


# -- the selection machinery (base chart, on integer pairs) -----------------


def _point(w):
    """A chart point in the integer form of the walk: an irrational Surd as
    it is, else its `rational_pair` (a, b), b >= 0, infinity (1, 0)."""
    return w if isinstance(w, Surd) else rational_pair(w)


def _act(a: int, b: int, c: int, d: int, p: int, q: int) -> tuple:
    """(a p + b q, c p + d q) signed as a `rational_pair`: a matrix of
    determinant one maps primitive pairs to primitive pairs."""
    p, q = a * p + b * q, c * p + d * q
    return (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)


def select_Yi(g: GroupElement, xi, i: int,
              ladder: ThetaLadder) -> Horoball | None:
    """The vertex Y_i(g, xi), or None when Z(g, xi) is undefined, as it is
    where large projections accumulate; angles come from the linear order
    of large projections itself."""
    try:
        walk = _base_walk(_point(g.inverse().apply_boundary(xi)), ladder)
    except WindowRequiredError:
        return None
    return None if walk is None else Horoball(*walk[i + 1]).translate(g)


def _base_walk(w, ladder: ThetaLadder):
    """(z, chain, y_1, y_2) at the chart point w (integer form of
    `_point`): z = (p, q) for Z = Z(e, w), the linear order toward it as
    the triples (p, q, e) of `rational_hits(p, q, ladder.theta)`, and from
    one walk along it y_i, i = 1, 2, the first vertex with angle >=
    Theta_i, the basepoint index (1, 0) first, and z when there is none
    (Theta_2 > Theta_1, so y_2 never precedes y_1).  None where Z(e, w) is
    undefined; raises WindowRequiredError where large projections
    accumulate at w.

    The anchor is the orbit point o = i, so the basepoint index has the
    finite angle |Re(o) - w| = |w|.  A chain vertex V's angle between its
    neighbours A, C in the order is |A x C| / (|V x A| |V x C|) in integer
    determinants (`proj_dist_int`), finite as the vertices are distinct."""
    levels = ladder._levels[1:3]
    if isinstance(w, Surd):  # Z: convergents never tie, max keeps the first
        hits, _, _ = enumerate_large_projections_windowed(w, ladder.Theta(4))
        if not hits:
            return None
        top = [(Y, d) for Y, d in hits if d > ladder.Theta(5)] or hits
        Z = max(top, key=lambda hit: hit[1])[0]
        z = Z.p, Z.q
        ys = [(1, 0) for i in (1, 2) if abs(w) >= ladder.Theta(i)]
    elif w[1]:
        z = w
        ys = [(1, 0) for n, d in levels if abs(w[0]) * d >= n * w[1]]
    else:
        return None  # xi is the tangency of the basepoint index itself
    chain = rational_hits(*z, ladder.theta)
    if len(ys) < 2:
        (m, d), ap, aq = levels[len(ys)], 1, 0  # no level fires below it
        for (p, q, _), (cp, cq, _) in zip(chain, [*chain[1:], (*z, 0)]):
            n = abs(ap * cq - aq * cp)
            f = abs(q * ap - p * aq) * abs(q * cp - p * cq)
            if n * d >= m * f:
                ys += [(p, q) for m2, d2 in levels[len(ys):]
                       if n * d2 >= m2 * f]
                if len(ys) == 2:
                    break
            ap, aq = p, q
    y1, y2 = (*ys, z, z)[:2]
    return z, chain, y1, y2


# -- membership in U(Y, i) with interval certification ---------------------


@dataclass(frozen=True)
class Membership:
    verdict: str  # "yes" | "no" | "boundary-uncertain"
    delta: Fraction | None = None
    detail: str = ""


def _exceeds(y: tuple, a: int, b: int, m: tuple):
    """Whether d^pi_Y(X, a/b) > m for Y = y = (p, q), b > 0, m = (n, d),
    d > 0: the value is b / (q |q a - p b|) (`proj_dist_int` at (1, 0),
    (a, b)), so b d > n q |q a - p b|; None where it is infinite, at the
    pole a/b = p/q and at the basepoint index (q = 0)."""
    p, q = y
    gap = abs(q * a - p * b)
    return None if q == 0 or gap == 0 else b * m[1] > m[0] * q * gap


def _step(gap: int, den: int, cap: int) -> int:
    """The first step k < cap with 2^-(k+1) < gap / den (den > 0), or cap
    if there is none (all steps when gap <= 0)."""
    if gap <= 0:
        return cap
    return min(cap, max(0, (den // gap).bit_length() - 1))


def _clears(y: tuple, m: tuple, lo: int, hi: int, den: int, cap: int) -> int:
    """The first step k < cap at which inf over H_k of d^pi_Y(X, .) > m =
    (n, d), or cap, for Y = y = (p, q): 1 / (q |q t - p|) exceeds m exactly
    within r = d / (n q^2) of the pole p/q, so the infimum does while H_k
    lies inside (p/q - r, p/q + r); never at the basepoint index, q = 0."""
    p, q = y
    if q == 0:
        return cap
    n, d = m
    c, s = p * q * n, n * q * q  # the pole p/q = c/s
    return _step(min(lo * s - (c - d) * den, (c + d) * den - hi * s),
                 den * s, cap)


def _centre(w) -> tuple:
    """(lo, hi, den) with lo/den <= w <= hi/den (w as `_point` gives it),
    lo = hi at a rational w; at a surd w, lo = floor(w 2^200) (exact,
    `Surd.__floor__`), hi = lo+1."""
    if isinstance(w, Surd):
        lo = math.floor(w * (1 << 200))
        return lo, lo + 1, 1 << 200
    return w[0], w[0], w[1]


# the cap on the step k of a certificate, delta = 2^-(k+2) >= 2^-49
_MAX_HALVINGS = 48


def membership_U(Y: Horoball, i: int, g: GroupElement, xi,
                 ladder: ThetaLadder) -> Membership:
    """Certified membership of (g, xi) in U(Y, i).

    Reduces to the base chart at (e, g^{-1} xi) with Y0 = g^{-1} Y, so the
    verdict is equivariant by construction.
    """
    if i not in (1, 2):
        raise ValueError("the thin families are U(.,1) and U(.,2)")
    ginv = g.inverse()
    w, Y0 = ginv.apply_boundary(xi), Y.translate(ginv)
    if w is INFINITY:
        return Membership("no", detail="xi at the basepoint tangency")
    try:
        walk = _base_walk(_point(w), ladder)
    except WindowRequiredError as err:
        return Membership("boundary-uncertain", detail=str(err))
    if walk is None:
        # certified complement when the projection sup stays below Theta_4
        if isinstance(w, Surd) and \
                sup_projection(BASE_INDEX, w).below(ladder.Theta(4)):
            return Membership("no", detail="certified Theta_4-thick")
        return Membership("boundary-uncertain", detail="no Z and no certificate")
    z, chain, *ys = walk
    y, why = ys[i - 1], "delta exhausted"
    try:
        k = _certify_yes(y, i, _point(w), z, chain, ladder, _MAX_HALVINGS)
    except WindowRequiredError as err:
        k, why = None, str(err)
    if y == (Y0.p, Y0.q):
        return Membership("boundary-uncertain", detail=why) if k is None \
            else Membership("yes", delta=Fraction(1, 4 << k))
    if k is None:  # else the actual member's interval excludes U(Y0, i)
        return Membership("boundary-uncertain", detail="competitor uncertified")
    return Membership("no", detail=f"certified member of U({Horoball(*y)},{i})")


def _certify_yes(y: tuple, i: int, w, z: tuple, chain: list,
                 ladder: ThetaLadder, max_halvings: int) -> int | None:
    """The step k of an interval certificate that Y_i stays equal to Y0 =
    y near w, delta = 2^-(k+2), or None; y, z and w as `_base_walk` gives
    them, with the chain toward z that the walk to Y0 used.  Raises
    WindowRequiredError where values above Theta_4 / 2 accumulate at w.

    Sound sufficient conditions on H = [w - delta, w + delta]:
      (1) inf_H d^pi_{Y0}(X, .) > Theta_i + theta_P: every horoball with
          tangency inside H (the potential argmax targets near w, including
          every rational w' in H) lies beyond Y0 in the attraction order,
          and Y0 keeps firing at level Theta_i for all of them;
      (2) every finite candidate V with an endpoint value above Theta_4
          (the only other possible targets, by monotonicity away from
          poles) also lies beyond Y0: d^pi_{Y0}(X, tangency V) > margin;
      (3) the walk prefix below Y0 is target-independent: its angles are
          measured between vertices at or before Y0, the same for every
          target beyond Y0; and the Theta_4 clause has a robust witness on H.
    Step k tests H_k = [lo0 - 2^-(k+1), hi0 + 2^-(k+1)] about the
    enclosure [lo0, hi0] of w (`_centre`).  Each test but (2) asks whether
    H_k lies inside an open interval (L, R) (a half-line for the basepoint
    index's own angle), so it holds from the `_step` of min(lo0 - L, R -
    hi0) on (`_clears` for the infimum tests).  A competitor of (2) with
    value <= margin is excused while its tangency lies in H_k; `stop` is
    the step at which the first one leaves.  So the certificate is
        k = max(first, clears(Y0, margin),
                min(clears(Z, margin4), clears(Y0, margin4))) < stop,
    `first` the basepoint angle's step and clears(Y0, margin), test (1),
    skipped at the basepoint index.  At Y0 = Z one clearance decides, as
    margin < margin4 gives clears(Y0, margin) <= clears(Y0, margin4).
    """
    # Competitors: a V with d^pi_V(oo, t) > Theta_4 at some t within delta
    # of w and pole at distance >= delta has q^2 |pole - w| < 2 q^2 |pole -
    # t| < 2/Theta_4, so it is a hit above Theta_4 / 2 at w: of the exact
    # enumeration at a surd w (e = 0 marks them), and of the chain at w =
    # a/b, where b floor.den > floor.num q e.  Poles inside the doubled
    # interval are the tangency family, covered wholesale by test (1).
    (t, u), margin, margin4 = ladder._levels[i], ladder._margins[i], \
        ladder._margins[4]
    lo, hi, den = _centre(w)
    cap = max_halvings
    hits = [(V.p, V.q, 0) for V, _ in enumerate_large_projections(
        INFINITY, w, ladder.Theta(4) / 2)] if isinstance(w, Surd) else chain
    # The basepoint index needs only its own angle inf_H |.| > margin
    # (nothing precedes it, nothing competes); any other Y0 needs the
    # basepoint angle below Theta_i on H, -Th < lo, hi < Th, and test (1).
    if y[1] == 0:
        m, d = margin
        k = max(_step(max(lo * d - m * den, -m * den - hi * d), den * d, cap),
                _clears(z, margin4, lo, hi, den, cap))
        return k if k < cap else None
    k = max(_step(min(lo * u + t * den, t * den - hi * u), den * u, cap),
            _clears(y, margin4, lo, hi, den, cap) if y == z else max(
                _clears(y, margin, lo, hi, den, cap),
                min(_clears(z, margin4, lo, hi, den, cap),
                    _clears(y, margin4, lo, hi, den, cap))))
    (n4, d4), stop = ladder._floor4, cap
    for p, q, e in hits:
        if k < stop and den * d4 > n4 * q * e and \
                _exceeds(y, p, q, margin) is False:
            stop = min(stop, _step(max(lo * q - p * den, p * den - hi * q),
                                   den * q, cap))
    return k if k < stop else None


def base_members(w, ladder: ThetaLadder) -> list:
    """The (Y, i), i = 1, 2, with (e, w) certified in U(Y, i), for w a
    chart point: one reduction gives Z(e, w), one walk gives Y_1 and Y_2,
    and each level is certified once.  Empty where Z(e, w) is undefined."""
    w = _point(w)
    try:  # where the certificate raises at w, it does at both levels
        walk = _base_walk(w, ladder)
        if walk is None:
            return []
        z, chain, *ys = walk
        return [(Horoball(*y), i) for i, y in zip((1, 2), ys) if _certify_yes(
            y, i, w, z, chain, ladder, _MAX_HALVINGS) is not None]
    except WindowRequiredError:
        return []


# -- theorem-level verification --------------------------------------------


@dataclass
class ThinReport:
    pairs_tested: int = 0
    long_failures: int = 0
    disjointness_failures: int = 0
    boundary_uncertain: int = 0
    ladder: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    def to_dict(self):
        return {**asdict(self), "witnesses": self.witnesses[:10]}


def is_theta5_thin(g: GroupElement, xi, ladder: ThetaLadder) -> bool:
    """d^pi_Y(g X, xi) > Theta_5 for some Y: trivially true at rational xi
    away from the moved basepoint tangency."""
    w = g.inverse().apply_boundary(xi)
    if w is INFINITY:
        return False
    if isinstance(w, Fraction):
        return True  # the tangency horoball at w has infinite projection
    return sup_projection(BASE_INDEX, w).above(ladder.Theta(5))


def find_long_member(g: GroupElement, xi, S: FinitePart,
                     ladder: ThetaLadder):
    """(Y, i, [(w, k) for s in S]) with (gs, xi) certified in U(Y,i) for
    every s, or None: Y_i(gs, .) = Y on [w - 2^-(k+2), w + 2^-(k+2)] at w
    = s^-1 (g^-1 xi), integers as `_point` gives them.  Level i has one
    candidate: Y_i(gs, xi), when it is the same for every s, compared as s
    Y_i(e, w).  One walk per translate, a step k per certificate, only Y is
    built.  Raises WindowRequiredError where large projections accumulate."""
    w0 = _point(g.inverse().apply_boundary(xi))
    walks = []
    for s in S.elements:
        w = (w0 * s.d - s.b) / (w0 * -s.c + s.a) if isinstance(w0, Surd) \
            else _act(s.d, -s.b, -s.c, s.a, *w0)  # s^-1 = (d, -b, -c, a)
        walk = _base_walk(w, ladder)
        if walk is None:
            return None
        walks.append((s, w, *walk))
    for i in (1, 2):
        common = {_act(s.a, s.b, s.c, s.d, *ys[i - 1])
                  for s, _, _, _, *ys in walks}
        if len(common) != 1:
            continue
        certificates = []
        for s, w, z, chain, *ys in walks:
            try:
                k = _certify_yes(ys[i - 1], i, w, z, chain, ladder,
                                 _MAX_HALVINGS)
            except WindowRequiredError:
                return None  # at w for either level
            if k is None:
                break
            certificates.append((w, k))
        else:
            return Horoball(*common.pop()).translate(g), i, certificates
    return None


def _overlaps(members, S: FinitePart):
    """(n, h, Y') for each certificate (w, k) of the n-th member (g, ...,
    Y, i, certificates) of `find_long_member` whose interval meets, ends
    included, an earlier one of the same h = gs and level i certifying
    another member Y', the one reaching furthest right, ties to least (q,
    p): both certify Y_i(h, .), so they must be disjoint.  A surd centre
    enters with the inner interval [hi0 - delta, lo0 + delta] of its
    enclosure (`_centre`), nonempty as delta >= 2^-49.  Each group is swept
    by left end, keeping the two members of greatest (reach, -q, -p).  Ends
    p/d, d = den 2^(k+2), compare exactly as floor(p 2^K / d), 2^K >= d^2."""
    products = {g: [g * s for s in S.elements]
                for g in {member[0] for member in members}}
    groups = {}
    for n, (g, *_, Y, i, certificates) in enumerate(members):
        for h, (w, k) in zip(products[g], certificates):
            lo, hi, den = _centre(w)
            e = k + 2  # the ends (hi 2^e - den) / d, (lo 2^e + den) / d
            groups.setdefault((h, i), []).append(
                ((hi << e) - den, (lo << e) + den, den << e, Y.p, Y.q, n))
    for (h, _), group in groups.items():
        K = 2 * max(e[2] for e in group).bit_length()
        reach = {}  # (p, q): (right end, -q, -p), the two of greatest rank
        for lo, n, hi, y in sorted(
                ((lo << K) // d, n, ((hi << K) // d, -q, -p), (p, q))
                for lo, hi, d, p, q, n in group):
            rivals = [v for v, r in reach.items() if v != y and r[0] >= lo]
            if rivals:
                yield n, h, Horoball(*max(rivals, key=reach.get))
            reach[y] = max(hi, reach.get(y, hi))
            if len(reach) > 2:
                del reach[min(reach, key=reach.get)]


def verify_thin_theorem(S: FinitePart, ladder: ThetaLadder,
                        samples) -> ThinReport:
    """Theorem-level check on sampled Theta_5-thin pairs: S-longness in
    U(.,1) or U(.,2), then disjointness (order <= 1) in each family from
    the certificates of the S-long pairs.  A pair whose large projections
    accumulate at a translate is boundary-uncertain, not a failure."""
    rep = ThinReport(ladder=ladder.to_dict())
    members = []
    for (g, xi) in samples:
        if not is_theta5_thin(g, xi, ladder):
            continue
        rep.pairs_tested += 1
        try:
            got = find_long_member(g, xi, S, ladder)
        except WindowRequiredError as err:
            rep.boundary_uncertain += 1
            rep.witnesses.append({"g": repr(g), "xi": str(xi),
                                  "failure": "boundary-uncertain",
                                  "reason": str(err)})
            continue
        if got is None:
            rep.long_failures += 1
            rep.witnesses.append({"g": repr(g), "xi": str(xi),
                                  "failure": "not S-long"})
            continue
        members.append((g, xi, *got))
    for n, h, Yp in _overlaps(members, S):
        rep.disjointness_failures += 1
        g, xi, Y, i, _ = members[n]
        rep.witnesses.append(dict(failure="overlap", g=repr(g), xi=str(xi),
                                  h=repr(h), pair=[repr(Y), repr(Yp), i]))
    return rep
