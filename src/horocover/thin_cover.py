"""The thin-part cover: theta ladder, equivariant Z and Y_i, the sets U(Y,i).

Everything is defined in a base chart: the basepoint index X is the horoball
at infinity, and all operations at (g, xi) reduce to (e, g^{-1} xi) with
indices translated by g^{-1}.  Equivariance is therefore definitional.  The
selection Z(e, xi) is the deterministic argmax of d^pi_Y(X, xi) with
lexicographic (q, p) tie-breaks, preferring values above Theta_5; Y_i walks
the linear order of large-projection vertices in the anchor window graph.
Membership in U(Y, i) is certified on explicit delta-intervals: a sound
under-approximation of the interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .certified import INFINITE, surd_interval
from .hyperbolic import (
    HOROBALL_INF,
    GroupElement,
    Horoball,
    chart_point,
    proj_dist_frac,
    word_ball,
)
from .projection_complex import ProjComplexGraph
from .projection_data import (
    WindowRequiredError,
    enumerate_large_projections,
    enumerate_large_projections_windowed,
    sup_projection,
)
from .surd import INFINITY, Surd

BASE_INDEX = HOROBALL_INF  # X_Y, the horoball at the basepoint cusp


class LadderAuditError(ValueError):
    """The theta ladder fails one of the inequalities the proofs need."""


@dataclass(frozen=True)
class ThetaLadder:
    """Theta_i = 10*(i+1)*(theta + theta_S), i = 0..5."""

    theta: Fraction
    theta_S: Fraction
    theta_P: Fraction  # measured projection-complex margin constant

    def __post_init__(self):
        self.audit()

    def Theta(self, i: int) -> Fraction:
        if not 0 <= i <= 5:
            raise ValueError("ladder index out of range")
        return 10 * (i + 1) * (self.theta + self.theta_S)

    def audit(self):
        """The rational inequalities the cover proofs rely on."""
        th, ts, tp = self.theta, self.theta_S, self.theta_P
        Th = [self.Theta(i) for i in range(6)]
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
        return {
            "theta": str(self.theta),
            "theta_S": str(self.theta_S),
            "theta_P": str(self.theta_P),
            **{f"Theta_{i}": str(self.Theta(i)) for i in range(6)},
        }


@dataclass(frozen=True)
class FinitePart:
    """A finite symmetric subset of the group, with its basepoint orbit."""

    elements: tuple  # GroupElements, canonical order

    @staticmethod
    def word_ball(radius: int) -> "FinitePart":
        return FinitePart(tuple(word_ball(radius)))

    def __post_init__(self):
        els = set(self.elements)
        for g in self.elements:
            if g.inverse() not in els:
                raise ValueError("finite part must be symmetric")
        object.__setattr__(
            self, "elements",
            tuple(sorted(els, key=lambda g: (g.a, g.b, g.c, g.d))))

    def orbit(self) -> list[Horoball]:
        return sorted({BASE_INDEX.translate(g) for g in self.elements},
                      key=lambda Y: (Y.q, Y.p))


def theta_S(S: FinitePart, theta_P: Fraction,
            floor: Fraction = Fraction(1, 4)) -> Fraction:
    """sup of d^pi_Y(X, X') over X, X' in the S-orbit of the basepoint
    index, inflated by the measured complex margin theta_P."""
    orbit = S.orbit()
    raw = Fraction(0)
    for i, A in enumerate(orbit):
        for B in orbit[i + 1:]:
            hits = enumerate_large_projections(A, B, floor)
            if hits:
                raw = max(raw, max(d for _, d in hits))
            else:
                raw = max(raw, floor)  # certified upper bound on this pair
    if len(orbit) <= 1:
        return Fraction(0)
    return raw + theta_P


# -- the selection machinery (base chart) ----------------------------------


def select_Z(g: GroupElement, xi, ladder: ThetaLadder) -> Horoball | None:
    """Equivariant choice of a Theta_4-large (preferably Theta_5-large)
    projection index for (g, xi); None if no certified candidate exists."""
    w = chart_point(g.inverse().apply_boundary(xi))
    Z0 = _select_z_base(w, ladder)
    return None if Z0 is None else Z0.translate(g)


def _select_z_base(w, ladder: ThetaLadder) -> Horoball | None:
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


def _base_angle(w):
    """d^pi of the basepoint index between the basepoint o = i and w.

    The anchor is the orbit point, not its tangency at oo, so the basepoint
    index itself carries the finite angle |Re(o) - w| = |w| and can be the
    selected vertex (it is crossed first by the geodesic from o to w)."""
    return abs(w)


@lru_cache(maxsize=4096)
def _chain(p: int, q: int, theta: Fraction) -> tuple:
    """The linear order of large-projection vertices between the basepoint
    index and Horoball(p/q): every V with d^pi_V(oo, p/q) > theta, sorted
    by denominator (better approximations of p/q come later)."""
    hits = enumerate_large_projections(INFINITY, Fraction(p, q), theta)
    inner = [(V, d) for V, d in hits if V != Horoball(p, q)]
    inner.sort(key=lambda t: (t[0].q, abs(t[0].p), t[0].p))
    return tuple(V for V, _ in inner)


def chain_angle(chain: tuple, k: int, Z: Horoball) -> Fraction:
    """d^max at chain[k] along oo -> ... -> Z: the projection distance
    between its neighbours in the order (endpoints at oo and Z)."""
    prev = INFINITY if k == 0 else chain[k - 1].tangency
    succ = (Z if k == len(chain) - 1 else chain[k + 1]).tangency
    d = proj_dist_frac(chain[k], prev, succ)
    if d is INFINITE:
        raise WindowRequiredError("tangent neighbours in the chain")
    return d


def select_Yi(g: GroupElement, xi, i: int, ladder: ThetaLadder,
              graph: ProjComplexGraph | None = None) -> Horoball | None:
    """The vertex Y_i(g, xi), or None when Z(g, xi) is undefined.

    When a window graph is supplied, d^max is measured there (oracle path
    for small data); otherwise angles come from the linear order itself.
    """
    w = chart_point(g.inverse().apply_boundary(xi))
    Y0 = _select_yi_base(w, i, ladder, graph)
    return None if Y0 is None else Y0.translate(g)


def _select_yi_base(w, i: int, ladder: ThetaLadder,
                    graph: ProjComplexGraph | None = None) -> Horoball | None:
    Z = _select_z_base(w, ladder)
    if Z is None or Z == BASE_INDEX:
        return None
    if graph is not None:
        return _walk_graph(Z, i, ladder, graph, w)
    return _walk_chain(Z, i, ladder, w)


def _walk_chain(Z: Horoball, i: int, ladder: ThetaLadder, w) -> Horoball:
    """First vertex in the linear order toward Z with angle >= Theta_i."""
    Th = ladder.Theta(i)
    if _base_angle(w) >= Th:
        return BASE_INDEX
    chain = _chain(Z.p, Z.q, ladder.theta)
    for k in range(len(chain)):
        if chain_angle(chain, k, Z) >= Th:
            Yi = chain[k]
            # prefix audit: re-measure the earlier angles with the walk
            # truncated at Y_i; they must stay below Theta_i
            prefix = chain[:k]
            for j in range(len(prefix)):
                if chain_angle(prefix, j, Yi) >= Th:
                    raise WindowRequiredError(
                        f"prefix audit failed at Theta_{i}: "
                        f"{prefix[j]} before {Yi}")
            return Yi
    return Z


def _walk_graph(Z: Horoball, i: int, ladder: ThetaLadder,
                graph: ProjComplexGraph, w) -> Horoball:
    """Graph oracle for the walk: candidates by d^max, nearest first."""
    X = BASE_INDEX
    if graph.distance(X, Z) is None:
        raise WindowRequiredError("anchor window disconnected")
    Th = ladder.Theta(i)
    if _base_angle(w) >= Th:
        return X
    cands = [V for V in graph.vertices if V not in (X, Z)
             and graph.dmax(X, Z, V) >= Th]
    if not cands:
        return Z
    dX = graph._bfs(X)
    cands.sort(key=lambda V: (dX[V], V.q, V.p))
    if len(cands) > 1 and dX[cands[0]] == dX[cands[1]]:
        raise WindowRequiredError(
            f"uniqueness audit failed at Theta_{i}: {cands[0]} vs {cands[1]}")
    Yi = cands[0]
    on, _, _ = graph.geodesic_dag(X, Yi)
    for V in on:
        if V not in (X, Yi) and graph.dmax(X, Yi, V) >= Th:
            raise WindowRequiredError(
                f"prefix audit failed at Theta_{i}: {V} before {Yi}")
    return Yi


# -- membership in U(Y, i) with interval certification ---------------------


@dataclass
class Membership:
    verdict: str  # "yes" | "no" | "boundary-uncertain"
    delta: Fraction | None = None
    detail: str = ""


def _dpi_inf(Y: Horoball, w: Fraction) -> Fraction:
    """d^pi_Y(basepoint index, w) in the base chart, exact."""
    return proj_dist_frac(Y, INFINITY, w)


def _interval_inf(Y: Horoball, lo: Fraction, hi: Fraction) -> Fraction:
    """inf over [lo, hi] of w -> d^pi_Y(X, w) = 1/(q|qw-p|).

    The map is monotone on each side of its pole p/q and has no zero on a
    bounded interval, so the infimum is at an endpoint (a pole inside only
    raises interior values).
    """
    vals = []
    for e in (lo, hi):
        d = _dpi_inf(Y, e)
        if d is not INFINITE:
            vals.append(d)
    if not vals:  # both endpoints at the tangency: degenerate interval
        return Fraction(0)
    return min(vals)


def membership_U(Y: Horoball, i: int, g: GroupElement, xi,
                 ladder: ThetaLadder, max_halvings: int = 48) -> Membership:
    """Certified membership of (g, xi) in U(Y, i).

    Reduces to the base chart at (e, g^{-1} xi) with Y0 = g^{-1} Y, so the
    verdict is equivariant by construction.
    """
    if i not in (1, 2):
        raise ValueError("the thin families are U(.,1) and U(.,2)")
    ginv = g.inverse()
    w = chart_point(ginv.apply_boundary(xi))
    Y0 = Y.translate(ginv)
    return _membership_base(Y0, i, w, ladder, max_halvings)


def _membership_base(Y0: Horoball, i: int, w, ladder: ThetaLadder,
                     max_halvings: int) -> Membership:
    if w is INFINITY:
        return Membership("no", detail="xi at the basepoint tangency")
    try:
        Z = _select_z_base(w, ladder)
    except WindowRequiredError as err:
        return Membership("boundary-uncertain", detail=str(err))
    if Z is None or Z == BASE_INDEX:
        # certified complement when the projection sup stays below Theta_4
        if isinstance(w, Surd) and \
                sup_projection(BASE_INDEX, w).below(ladder.Theta(4)):
            return Membership("no", detail="certified Theta_4-thick")
        return Membership("boundary-uncertain", detail="no Z and no certificate")
    try:
        Yi = _walk_chain(Z, i, ladder, w)
    except WindowRequiredError as err:
        return Membership("boundary-uncertain", detail=str(err))
    if Yi == Y0:
        return _certify_yes(Y0, i, w, Z, ladder, max_halvings)
    # certify the complement: the actual member's interval excludes U(Y0,i)
    other = _certify_yes(Yi, i, w, Z, ladder, max_halvings)
    if other.verdict == "yes":
        return Membership("no", detail=f"certified member of U({Yi},{i})")
    return Membership("boundary-uncertain", detail="competitor uncertified")


def _certify_yes(Y0: Horoball, i: int, w, Z: Horoball, ladder: ThetaLadder,
                 max_halvings: int) -> Membership:
    """Interval certificate that Y_i stays equal to Y0 near w.

    Sound sufficient conditions on H = [w - delta, w + delta]:
      (1) inf_H d^pi_{Y0}(X, .) > Theta_i + theta_P: every horoball with
          tangency inside H (the potential argmax targets near w, including
          every rational w' in H) lies beyond Y0 in the attraction order,
          and Y0 keeps firing at level Theta_i for all of them;
      (2) every finite candidate V with an endpoint value above Theta_4
          (the only other possible targets, by monotonicity away from
          poles) also lies beyond Y0: d^pi_{Y0}(X, tangency V) > margin;
      (3) the walk prefix below Y0 is target-independent (audited in
          _walk_to) and the Theta_4 clause has a robust witness on H.
    """
    # competitors with a pole outside the (doubled) interval: any V with
    # d^pi_V(oo, t) > Theta_4 at some t within delta of w and pole at
    # distance >= delta has q^2 |pole - w| < 2 q^2 |pole - t| < 2/Theta_4,
    # so it shows up in a single enumeration at w with floor Theta_4 / 2.
    # Poles inside the doubled interval are the tangency family, covered
    # wholesale by the inf bound (1).
    # The enumeration is exact for a surd w as well, so the competitor list
    # is complete and delta needs no cap.
    lo0, hi0 = surd_interval(w, 60) if isinstance(w, Surd) else (w, w)
    try:
        hits = enumerate_large_projections(INFINITY, w, ladder.Theta(4) / 2)
    except WindowRequiredError as err:
        return Membership("boundary-uncertain", detail=str(err))
    margin = ladder.Theta(i) + ladder.theta_P
    margin4 = ladder.Theta(4) + ladder.theta_P
    delta = Fraction(1, 4)
    for _ in range(max_halvings):
        lo, hi = lo0 - 2 * delta, hi0 + 2 * delta
        if Y0 == BASE_INDEX:
            # the basepoint index preempts the walk: it only needs its own
            # angle inf_H |.| to clear the margin (nothing precedes it)
            ok = (lo > 0 or hi < 0) and min(abs(lo), abs(hi)) > margin
        else:
            # the basepoint index must stay below Theta_i throughout H
            ok = max(abs(lo), abs(hi)) < ladder.Theta(i)
            ok = ok and _interval_inf(Y0, lo, hi) > margin
        if ok and Y0 != BASE_INDEX:
            for V, _ in hits:
                if V == Y0 or lo <= V.tangency <= hi:
                    continue
                dv = _dpi_inf(Y0, V.tangency)
                if dv is not INFINITE and dv <= margin:
                    ok = False
                    break
        if ok:
            # robust Theta_4 witness on the interval
            wit_ok = False
            for W in (Z, Y0):
                vals = []
                for end in (lo, hi):
                    d = _dpi_inf(W, end)
                    if d is not INFINITE:
                        vals.append(d)
                if vals and min(vals) > margin4:
                    wit_ok = True
                    break
            ok = wit_ok
        if ok:
            return Membership("yes", delta=delta)
        delta /= 2
    return Membership("boundary-uncertain", detail="delta exhausted")


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
        return {
            "pairs_tested": self.pairs_tested,
            "long_failures": self.long_failures,
            "disjointness_failures": self.disjointness_failures,
            "boundary_uncertain": self.boundary_uncertain,
            "ladder": self.ladder,
            "witnesses": self.witnesses[:10],
        }


def is_theta5_thin(g: GroupElement, xi, ladder: ThetaLadder) -> bool:
    """d^pi_Y(g X, xi) > Theta_5 for some Y: trivially true at rational xi
    away from the moved basepoint tangency."""
    w = chart_point(g.inverse().apply_boundary(xi))
    if w is INFINITY:
        return False
    if isinstance(w, Fraction):
        return True  # the tangency horoball at w has infinite projection
    return sup_projection(BASE_INDEX, w).above(ladder.Theta(5))


def find_long_member(g: GroupElement, xi, S: FinitePart,
                     ladder: ThetaLadder):
    """(Y, i, min delta) such that (gs, xi) is certified in U(Y,i) for every
    s in S, or None.  Candidates follow the cover lemma: the walk vertices
    Y_i at (gs, xi) for i = 1, 2."""
    cands = []
    seen = set()
    for i in (1, 2):
        for s in [None] + list(S.elements):
            h = g if s is None else g * s
            Y = select_Yi(h, xi, i, ladder)
            if Y is not None and (Y, i) not in seen:
                seen.add((Y, i))
                cands.append((Y, i))
    for Y, i in cands:
        deltas = []
        for s in S.elements:
            m = membership_U(Y, i, g * s, xi, ladder)
            if m.verdict != "yes":
                break
            deltas.append(m.delta)
        else:
            return Y, i, min(deltas)
    return None


def verify_thin_theorem(S: FinitePart, ladder: ThetaLadder, samples,
                        rng=None) -> ThinReport:
    """Theorem-level check on sampled Theta_5-thin pairs: S-longness in
    U(.,1) or U(.,2), family-wise disjointness, and order <= 1."""
    rep = ThinReport(ladder=ladder.to_dict())
    for (g, xi) in samples:
        if not is_theta5_thin(g, xi, ladder):
            continue
        rep.pairs_tested += 1
        got = find_long_member(g, xi, S, ladder)
        if got is None:
            rep.long_failures += 1
            if len(rep.witnesses) < 10:
                rep.witnesses.append({"g": repr(g), "xi": str(xi),
                                      "failure": "not S-long"})
            continue
        Y, i, _delta = got
        # order/disjointness: membership in the same family at a different
        # index must be certified-no (Y_i is a function of (g, xi))
        for (Yp, ip) in _disjointness_probes(Y, i, g, xi, ladder):
            m = membership_U(Yp, ip, g, xi, ladder)
            if m.verdict == "yes":
                rep.disjointness_failures += 1
                if len(rep.witnesses) < 10:
                    rep.witnesses.append({"g": repr(g), "xi": str(xi),
                                          "failure": "overlap",
                                          "pair": [repr(Y), repr(Yp), ip]})
            elif m.verdict == "boundary-uncertain":
                rep.boundary_uncertain += 1
    return rep


def _disjointness_probes(Y: Horoball, i: int, g: GroupElement, xi,
                         ladder: ThetaLadder):
    """A few competing (Y', i) in the same family to probe disjointness."""
    out = []
    w = chart_point(g.inverse().apply_boundary(xi))
    if isinstance(w, Fraction):
        Z = Horoball(w.numerator, w.denominator)
        for V in (BASE_INDEX,) + _chain(Z.p, Z.q, ladder.theta) + (Z,):
            Vg = V.translate(g)
            if Vg != Y:
                out.append((Vg, i))
            if len(out) >= 3:
                break
    return out
