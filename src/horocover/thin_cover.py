"""The thin-part cover: theta ladder, equivariant Z and Y_i, the sets U(Y,i).

Everything is defined in a base chart: the basepoint index X is the horoball
at infinity, and all operations at (g, xi) reduce to (e, g^{-1} xi) with
indices translated by g^{-1}.  Equivariance is therefore definitional.  The
selection Z(e, xi) is the deterministic argmax of d^pi_Y(X, xi) with
lexicographic (q, p) tie-breaks, preferring values above Theta_5; one walk
of the linear order of large-projection vertices toward Z gives Y_1 and Y_2.
Membership in U(Y, i) is certified on explicit delta-intervals, a sound
under-approximation of the interior; S-longness reduces each translate once.
One Euclid walk per translate gives the chain in integers; the intervals
of the certificates then witness disjointness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .hyperbolic import (
    HOROBALL_INF,
    GroupElement,
    Horoball,
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


# -- the selection machinery (base chart) ----------------------------------


def _select_z_base(w, ladder: ThetaLadder) -> Horoball | None:
    """Z(e, w): the choice of a Theta_4-large (preferably Theta_5-large)
    projection index in the base chart; None if no certified candidate
    exists."""
    if w is INFINITY:
        return None  # xi is the tangency of the basepoint index itself
    if isinstance(w, Fraction):
        return Horoball(w.numerator, w.denominator)
    # quadratic surd: the complete list of convergents above Theta_4, with
    # exact values; distinct convergents never tie, and max keeps the first
    # (smallest q) anyway
    hits, _, _ = enumerate_large_projections_windowed(w, ladder.Theta(4))
    if not hits:
        return None
    top = [(Y, d) for Y, d in hits if d > ladder.Theta(5)] or hits
    return max(top, key=lambda hit: hit[1])[0]


def select_Yi(g: GroupElement, xi, i: int,
              ladder: ThetaLadder) -> Horoball | None:
    """The vertex Y_i(g, xi), or None when Z(g, xi) is undefined, as it is
    where large projections accumulate; angles come from the linear order
    of large projections itself."""
    try:
        walk = _base_walk(g.inverse().apply_boundary(xi), ladder)
    except WindowRequiredError:
        return None
    return None if walk is None else walk[2][i].translate(g)


def _base_walk(w, ladder: ThetaLadder):
    """(Z, chain, {i: Y_i}) at the chart point w: Z = Z(e, w), the linear
    order toward it from `rational_hits(Z.p, Z.q, ladder.theta)`, and from
    one walk along it Y_i, i = 1, 2, the first vertex with angle >= Theta_i,
    the basepoint index first, and Z when there is none (Theta_2 > Theta_1,
    so Y_2 never precedes Y_1).  None where Z(e, w) is undefined; raises
    WindowRequiredError where large projections accumulate at w.

    The anchor is the orbit point o = i, so the basepoint index has the
    finite angle |Re(o) - w| = |w|.  A chain vertex V's angle between its
    neighbours A, C in the order is |A x C| / (|V x A| |V x C|) in integer
    determinants (`proj_dist_int`), finite as the vertices are distinct."""
    Z = _select_z_base(w, ladder)
    if Z is None:
        return None
    chain = rational_hits(Z.p, Z.q, ladder.theta)
    levels = ladder._levels[1:3]
    if isinstance(w, Fraction):
        a, b = abs(w.numerator), w.denominator
        found = [BASE_INDEX for n, d in levels if a * d >= n * b]
    else:
        found = [BASE_INDEX for i in (1, 2) if abs(w) >= ladder.Theta(i)]
    if len(found) < 2:
        path = ((1, 0, 0), *chain, (Z.p, Z.q, 0))
        for (ap, aq, _), (p, q, _), (cp, cq, _) in zip(path, path[1:],
                                                       path[2:]):
            n = abs(ap * cq - aq * cp)
            f = abs(q * ap - p * aq) * abs(q * cp - p * cq)
            found += [Horoball(p, q) for m, d in levels[len(found):]
                      if n * d >= m * f]
            if len(found) == 2:
                break
    return Z, chain, dict(zip((1, 2), found + [Z, Z]))


# -- membership in U(Y, i) with interval certification ---------------------


@dataclass(frozen=True)
class Membership:
    verdict: str  # "yes" | "no" | "boundary-uncertain"
    delta: Fraction | None = None
    detail: str = ""


def _exceeds(Y: Horoball, a: int, b: int, m: tuple):
    """Whether d^pi_Y(X, a/b) > m in the base chart (b > 0, a/b in any
    terms; m = (n, d), d > 0), in integers: the value is b / (q |q a - p b|),
    so the test is b d > n q |q a - p b|.  None where the value is infinite:
    at the pole a/b = p/q, and everywhere for the basepoint index (q = 0).
    This is `proj_dist_int` at (1, 0), (a, b), inlined on the hot path."""
    p, q = Y.p, Y.q
    gap = abs(q * a - p * b)
    if q == 0 or gap == 0:
        return None
    return b * m[1] > m[0] * q * gap


def _halvings(x: tuple, y: tuple, cap: int) -> int:
    """The first step k < cap with x - 2 delta > y, delta = 2^-(k+2), or
    cap if there is none, for integer pairs x, y (positive denominators,
    any terms): the steps before it are those with 2^-(k+1) >= x - y."""
    n, d = x[0] * y[1] - y[0] * x[1], x[1] * y[1]
    if n <= 0:
        return cap
    return min(cap, max(0, (d // n).bit_length() - 1))


def _clears(Y: Horoball, m: tuple, lo0: tuple, hi0: tuple, cap: int) -> int:
    """The first step k < cap at which inf over H_k of d^pi_Y(X, .) > m =
    (n, d), or cap: the value 1 / (q |q t - p|) exceeds m exactly within
    r = d / (n q^2) of the pole p/q, so the infimum does exactly while H_k
    lies inside (p/q - r, p/q + r); never at the basepoint index, q = 0."""
    p, q = Y.p, Y.q
    if q == 0:
        return cap
    n, d = m
    c, s = p * q * n, n * q * q  # the pole p/q = c/s
    return max(_halvings(lo0, (c - d, s), cap),
               _halvings((c + d, s), hi0, cap))


def _centre(w) -> tuple:
    """(lo, hi, den) with lo/den <= w <= hi/den, lo = hi at a rational w;
    at a surd w, lo = floor(w 2^200) (exact, `Surd.__floor__`), hi = lo+1."""
    if isinstance(w, Surd):
        den = 1 << 200
        lo = math.floor(w * den)
        return lo, lo + 1, den
    return w.numerator, w.numerator, w.denominator


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
    w = ginv.apply_boundary(xi)
    Y0 = Y.translate(ginv)
    if w is INFINITY:
        return Membership("no", detail="xi at the basepoint tangency")
    try:
        walk = _base_walk(w, ladder)
    except WindowRequiredError as err:
        return Membership("boundary-uncertain", detail=str(err))
    if walk is None:
        # certified complement when the projection sup stays below Theta_4
        if isinstance(w, Surd) and \
                sup_projection(BASE_INDEX, w).below(ladder.Theta(4)):
            return Membership("no", detail="certified Theta_4-thick")
        return Membership("boundary-uncertain", detail="no Z and no certificate")
    Z, chain, Ys = walk
    if Ys[i] == Y0:
        return _certify_yes(Y0, i, w, Z, chain, ladder, _MAX_HALVINGS)
    # certify the complement: the actual member's interval excludes U(Y0,i)
    other = _certify_yes(Ys[i], i, w, Z, chain, ladder, _MAX_HALVINGS)
    if other.verdict == "yes":
        return Membership("no", detail=f"certified member of U({Ys[i]},{i})")
    return Membership("boundary-uncertain", detail="competitor uncertified")


def _certify_yes(Y0: Horoball, i: int, w, Z: Horoball, chain: list,
                 ladder: ThetaLadder, max_halvings: int) -> Membership:
    """Interval certificate that Y_i stays equal to Y0 near w, given the
    chain toward Z that the walk to Y0 used.

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
    Step k tests delta = 2^-(k+2) on H_k = [lo0 - 2^-(k+1), hi0 +
    2^-(k+1)] about the enclosure [lo0, hi0] of w (`_centre`).  Each test
    but (2) asks whether H_k lies inside an open interval (L, R) (a
    half-line for the basepoint index's own angle), so it holds exactly
    from the step max(_halvings(lo0, L), _halvings(R, hi0)) on; `_clears`
    gives that step for the infimum tests.  A competitor of (2) with value
    <= margin is excused exactly while its tangency lies in H_k, which
    ends at some step; `stop` is the least.  So the certificate is step
        k = max(first, clears(Y0, margin),
                min(clears(Z, margin4), clears(Y0, margin4))),
    `first` the basepoint angle's step and clears(Y0, margin), test (1),
    skipped at the basepoint index; the verdict is "yes" iff k < stop.

    All tests run on integer pairs; at w = a/b a chain entry (p, q, e) is a
    competitor when b floor.den > floor.num q e.
    """
    # competitors with a pole outside the (doubled) interval: any V with
    # d^pi_V(oo, t) > Theta_4 at some t within delta of w and pole at
    # distance >= delta has q^2 |pole - w| < 2 q^2 |pole - t| < 2/Theta_4,
    # so it shows up in a single enumeration at w with floor Theta_4 / 2.
    # Poles inside the doubled interval are the tangency family, covered
    # wholesale by the inf bound (1).
    # The enumeration is exact for a surd w as well, so the competitor list
    # is complete and delta needs no cap.  For a rational w the chain toward
    # Z = Horoball(w) already holds every V above theta < Theta_4/2.
    Th, margin, margin4 = ladder._levels[i], ladder._margins[i], \
        ladder._margins[4]
    a0, a1, b = _centre(w)
    lo0, hi0, cap = (a0, b), (a1, b), max_halvings
    if isinstance(w, Surd):
        try:
            hits = [(V.p, V.q) for V, _ in enumerate_large_projections(
                INFINITY, w, ladder.Theta(4) / 2)]
        except WindowRequiredError as err:
            return Membership("boundary-uncertain", detail=str(err))
    else:
        n4, d4 = ladder._floor4
        hits = [(p, q) for p, q, e in chain if b * d4 > n4 * q * e]
    # The basepoint index only needs its own angle inf_H |.| > margin, i.e.
    # lo > margin or hi < -margin (nothing precedes it, nothing competes);
    # any other Y0 needs the basepoint angle below Theta_i on H, i.e.
    # -Th < lo, hi < Th, and its own test (1).
    if Y0 == BASE_INDEX:
        first = min(_halvings(lo0, margin, cap),
                    _halvings((-margin[0], margin[1]), hi0, cap))
        own, blockers = 0, []
    else:
        first = max(_halvings(lo0, (-Th[0], Th[1]), cap),
                    _halvings(Th, hi0, cap))
        own = _clears(Y0, margin, lo0, hi0, cap)
        blockers = [t for t in hits if t != (Y0.p, Y0.q)
                    and _exceeds(Y0, *t, margin) is False]
    k = max(first, own, min(_clears(Z, margin4, lo0, hi0, cap),
                            _clears(Y0, margin4, lo0, hi0, cap)))
    stop = min([cap] + [min(_halvings(lo0, t, cap), _halvings(t, hi0, cap))
                        for t in blockers])
    if k >= stop:
        return Membership("boundary-uncertain", detail="delta exhausted")
    return Membership("yes", delta=Fraction(1, 4 << k))


def base_members(w, ladder: ThetaLadder) -> list:
    """The (Y, i), i = 1, 2, with (e, w) certified in U(Y, i), for w a
    chart point: one reduction gives Z(e, w), one walk gives Y_1 and Y_2,
    and each level is certified once.  Empty where Z(e, w) is undefined."""
    try:
        walk = _base_walk(w, ladder)
    except WindowRequiredError:
        return []
    if walk is None:
        return []
    Z, chain, Ys = walk
    return [(Ys[i], i) for i in (1, 2) if _certify_yes(
        Ys[i], i, w, Z, chain, ladder, _MAX_HALVINGS).verdict == "yes"]


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
    """(Y, i, certificates) with (gs, xi) certified in U(Y,i) for every s
    in S, or None; the certificate (h, w, delta) of h = gs says Y_i(h, .) =
    Y on [w - delta, w + delta], w = h^-1 xi.  Level i has one candidate:
    Y_i(gs, xi), when it is the same for every s.  Each gs is reduced to
    the base chart once, with Z(e, w), one chain and one walk.  Raises
    WindowRequiredError where large projections accumulate at some w: no
    certificate decides the pair there."""
    walks = []
    for s in S.elements:
        h = g * s
        w = h.inverse().apply_boundary(xi)
        walk = _base_walk(w, ladder)
        if walk is None:
            return None
        walks.append((h, w, *walk))
    for i in (1, 2):
        common = {Ys[i].translate(h) for h, _, _, _, Ys in walks}
        if len(common) != 1:
            continue
        certificates = []
        for h, w, Z, chain, Ys in walks:
            m = _certify_yes(Ys[i], i, w, Z, chain, ladder, _MAX_HALVINGS)
            if m.verdict != "yes":
                break
            certificates.append((h, w, m.delta))
        else:
            return common.pop(), i, certificates
    return None


def _overlaps(members):
    """(n, h, Y') for each certificate of the n-th member (..., Y, i,
    certificates) whose interval meets, ends included, an earlier one of
    the same translate h and level i certifying another member Y': both
    certify Y_i(h, .), so they must be disjoint.  A surd centre enters with
    the inner interval [hi0 - delta, lo0 + delta] of its enclosure
    (`_centre`), which delta >= 2^-49 keeps nonempty.  Each group is swept
    by left end, keeping the two members that reach furthest right.  Ends
    p/d compare exactly as floor(p 2^k / d), 2^k >= every denominator
    squared."""
    groups = {}
    for n, (*_, Y, i, certificates) in enumerate(members):
        for h, w, delta in certificates:
            a0, a1, b = _centre(w)
            r, s = delta.as_integer_ratio()
            groups.setdefault((h, i), []).append(
                (a1 * s - r * b, a0 * s + r * b, b * s, Y, n))
    for (h, _), group in groups.items():
        k = 2 * max(e[2] for e in group).bit_length()
        reach = {}
        for lo, n, hi, Y in sorted(((lo << k) // d, n, (hi << k) // d, Y)
                                   for lo, hi, d, Y, n in group):
            rivals = [V for V, r in reach.items() if V != Y and r >= lo]
            if rivals:
                yield n, h, rivals[0]
            reach[Y] = max(hi, reach.get(Y, hi))
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
    for n, h, Yp in _overlaps(members):
        rep.disjointness_failures += 1
        g, xi, Y, i, _ = members[n]
        rep.witnesses.append(dict(failure="overlap", g=repr(g), xi=str(xi),
                                  h=repr(h), pair=[repr(Y), repr(Yp), i]))
    return rep
