"""The thick-part cover: ray classification, the coarse flow space,
flow-line charts, long thin covers along the flow, and pullbacks.

The compact thick part is encoded by a depth bound: a ray is thick when
every horoball penetration stays at or below D_max = log(Theta/2),
equivalently when no projection distance exceeds Theta.  The coarse flow
space CF_0 holds the triples (x_-, v, xi_+) with v an orbit point within
rho of the witness ray from x_- toward xi_+.  The sample keeps what the
charts read: for each forward endpoint, the orbit points v found along its
rays, and the number of triples.  Each endpoint gives one flow-line chart
with an arclength parameter, and the long thin cover lays two staggered
interval families of length 4*beta along each chart.  The coarse
flow map iota_tau pushes a pair (g, xi) to the orbit points near the time-
tau point of its ray, and covers pull back through it.

Which orbit points lie within rho of a ray point is a filtered predicate:
one rational enclosure of the point bounds cosh of every candidate's
distance on both sides of cosh rho, so a candidate is kept or dropped
without further interval work unless it falls in the band between the
bounds, where a certified compare decides.  The ray's own start, at
distance exactly t from its time-t point, is decided exactly, since no
enclosure separates the tie t = rho.  A ray's geometry is computed once per
ray, so a point along it costs an exponential and a rational map, and is
located by a reduction run in floats and finished exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from mpmath import iv

from .certified import (
    INFINITE,
    CertifiedReal,
    Undecided,
    fraction_to_iv,
    iv_to_fractions,
)
from .hyperbolic import (
    GroupElement,
    HOROBALL_INF,
    Horoball,
    IDENTITY,
    geodesic_point,
    hyperbolic_distance,
    locate,
    orbit_point,
    word_ball,
)
from .projection_data import cusp_projections, sup_projection
from .surd import INFINITY, Surd

_T_STEP = Fraction(1, 2)  # between the sample times 0, ..., t_max of a ray


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
        if self.rho < 0 or self.beta <= 0:
            raise ValueError("need rho >= 0 and beta > 0")

    @property
    def depth_bound(self) -> float:
        return math.log(float(self.Theta) / 2)

    def t_grid(self):
        steps = math.floor(self.t_max / _T_STEP)
        return (k * _T_STEP for k in range(steps + 1))


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


# the neighbour set of a located point is its element times this ball
_NEIGHBORS = tuple(word_ball(2))


# precision of the one enclosure taken of each sample point
_POINT_DPS = 40


@lru_cache(maxsize=8)
def _twice_cosh_minus_2(rho: Fraction) -> tuple[Fraction, Fraction]:
    """A rational enclosure of 2 (cosh rho - 1) = e^rho + e^-rho - 2."""
    old = iv.dps
    try:
        iv.dps = _POINT_DPS
        e = iv.exp(fraction_to_iv(rho))
        return iv_to_fractions(e + 1 / e - 2)
    finally:
        iv.dps = old


def _square_bounds(lo: int, hi: int) -> tuple[int, int]:
    """Bounds of s^2 over lo <= s <= hi."""
    if lo > 0:
        return lo * lo, hi * hi
    if hi < 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


def _orbit_ints(v: GroupElement) -> tuple[int, int]:
    """(a, n) with v x0 = (a + i) / n."""
    return v.a * v.c + v.b * v.d, v.c * v.c + v.d * v.d


def orbit_points_near(point, rho: Fraction, origin=None) -> list:
    """Orbit elements v with d_T(v x0, point) <= rho, among the neighbour
    set locate(m) * word_ball(2) of the midpoint m of the point's dps-40
    enclosure; `point` is a pair of CertifiedReal or rational coordinates.

    Two-sided filter: cosh d is bounded over the enclosure box, exactly in
    integers, against a rational enclosure of cosh rho; a candidate wholly
    below is kept and one wholly above dropped.  Only a candidate in the
    band between goes to a certified compare, and is kept when that ends
    Undecided.  `origin`, when given, is a pair (g, t) with the point at
    distance exactly t from g x0: a candidate with v x0 = g x0 is then kept
    iff t <= rho, which decides the tie t = rho that no enclosure can.
    """
    (xl, xh), (yl, yh) = (CertifiedReal.of(c).interval(_POINT_DPS)
                          for c in point)
    h = locate(((xl + xh) / 2, (yl + yh) / 2))
    # the box [xl, xh] x [yl, yh] as integers over one denominator D
    D = math.lcm(*(f.denominator for f in (xl, xh, yl, yh)))
    XL, XH, YL, YH = (int(f * D) for f in (xl, xh, yl, yh))
    # with v x0 = (a + i) / n and the point at (X + i Y) / D,
    # cosh d - 1 = s / (2 n D Y) for s = (a D - n X)^2 + (D - n Y)^2, so
    # d < rho iff s < c n D Y for c = 2 (cosh rho - 1); Y is taken at YL
    # for a keep and at YH for a drop
    c_lo, c_hi = _twice_cosh_minus_2(rho)
    keep_at = c_lo.numerator * D * YL
    drop_at = c_hi.numerator * D * YH
    tie = None if origin is None else _orbit_ints(origin[0])
    out = []
    for u in _NEIGHBORS:
        v = h * u
        a, n = _orbit_ints(v)
        if (a, n) == tie:
            if origin[1] <= rho:
                out.append(v)
            continue
        sx = _square_bounds(a * D - n * XH, a * D - n * XL)
        sy = _square_bounds(D - n * YH, D - n * YL)
        if (sx[1] + sy[1]) * c_lo.denominator < keep_at * n:
            out.append(v)
            continue
        if (sx[0] + sy[0]) * c_hi.denominator > drop_at * n:
            continue
        dist = hyperbolic_distance(orbit_point(v), point)
        try:
            if dist.compare(rho, max_dps=60) <= 0:
                out.append(v)
        except Undecided:
            out.append(v)  # boundary case: keep (closure-approximate)
    return out


@dataclass
class CoarseFlowSample:
    """The CF_0 triples (x_-, v, xi_+) as the charts read them: `points`
    maps each forward endpoint xi_+, in the order first found, to its orbit
    points v, in the order first found (a dict used as an ordered set);
    `size` counts the triples."""

    params: ThickParams
    points: dict = field(default_factory=dict)
    size: int = 0


def sample_coarse_flow(params: ThickParams, generators_radius: int,
                       xi_set) -> CoarseFlowSample:
    """Enumerate CF_0 triples: for g in the word ball and thick xi, walk
    the witness ray [g x0, xi) and record orbit points within rho."""
    sample = CoarseFlowSample(params)
    for g in word_ball(generators_radius):
        for xi in xi_set:
            for t in params.t_grid():
                pt = geodesic_point(g, xi, t)
                near = orbit_points_near(pt, params.rho, (g, t))
                # an endpoint enters with its first triple
                if near:
                    sample.points.setdefault(xi, {}).update(
                        dict.fromkeys(near))
                    sample.size += len(near)
    return sample


def flow_point(g: GroupElement, xi, tau, params: ThickParams) -> set:
    """iota_tau(g, xi): orbit points within rho of the time-tau point of
    the witness ray from g x0 toward xi."""
    pt = geodesic_point(g, xi, tau)
    return set(orbit_points_near(pt, params.rho, (g, tau)))


# -- flow-line charts -------------------------------------------------------


def _ray_parameter_fn(xi):
    """Signed arclength along the geodesic from the basepoint toward xi,
    of the orthogonal projection of a point (x, y); float precision, which
    only feeds the interval combinatorics of the cover."""
    if xi is INFINITY:
        return lambda x, y: math.log(y)
    f = float(xi)
    if f == 0.0:
        return lambda x, y: -math.log(y)
    c = (f * f - 1) / (2 * f)
    u0 = math.tan(math.atan2(1.0, -c) / 2)
    toward_zero = f > c

    def param(x, y):
        u = math.tan(math.atan2(y, x - c) / 2)
        return math.log(u0 / u) if toward_zero else math.log(u / u0)

    return param


def _line_distance_fn(xi):
    """Distance from a point to the full geodesic line carrying the
    basepoint witness ray toward xi (float)."""
    if xi is INFINITY:
        return lambda x, y: math.asinh(abs(x) / y)
    f = float(xi)
    if f == 0.0:
        return lambda x, y: math.asinh(abs(x) / y)
    c = (f * f - 1) / (2 * f)
    r2 = (f - c) ** 2

    def dist(x, y):
        num = abs((x - c) ** 2 + y * y - r2)
        return math.asinh(num / (2 * math.sqrt(r2) * y))

    return dist


# the multiplicative bound of the charts' embedding audit
_MU_HAT = 2.0


@dataclass
class FlowLineChart:
    """Orbit points near a common forward endpoint, with an arclength
    parameter along the canonical witness ray from the basepoint.

    The parameter of a member is intrinsic: the projection onto the
    witness ray, snapped to a quarter-integer grid.  Orbit points further
    than line_R from the carrying geodesic belong to other flow lines and
    are not admitted."""

    xi_plus: object
    line_R: float = 3.0
    members: dict = field(default_factory=dict)  # v -> parameter t

    def __post_init__(self):
        self._param_fn = _ray_parameter_fn(self.xi_plus)
        self._dist_fn = _line_distance_fn(self.xi_plus)
        self._coords = {}

    def add(self, v: GroupElement):
        a, n = _orbit_ints(v)
        x, y = a / n, 1 / n  # v x0, correctly rounded
        if self._dist_fn(x, y) <= self.line_R:
            self._coords[v] = (x, y)
            self.members[v] = Fraction(round(4 * self._param_fn(x, y)), 4)

    def audit_embedding(self):
        """The parameter map is a (mu_hat, A_hat)-quasi-isometric embedding
        of (members, d_T) into the reals: measure the best additive A_hat
        for the multiplicative bound mu_hat = _MU_HAT, over all member
        pairs."""
        vs = sorted(self.members, key=lambda v: (self.members[v], v.a, v.b,
                                                 v.c, v.d))
        # quarter-integer parameters: their float differences are exact
        pts = [(*self._coords[v], float(self.members[v])) for v in vs]
        A_hat = 0.0
        for i, (xu, yu, tu) in enumerate(pts):
            for xw, yw, tw in pts[i + 1:]:
                arg = 1 + ((xu - xw) ** 2 + (yu - yw) ** 2) / (2 * yu * yw)
                d = math.acosh(max(arg, 1.0))
                dt = abs(tu - tw)
                A_hat = max(A_hat, dt - _MU_HAT * d, d - _MU_HAT * dt)
        return _MU_HAT, A_hat


def build_charts(sample: CoarseFlowSample):
    """One chart per forward endpoint of the sample, keyed by str(xi_+);
    members must sit within line_R = rho + 1 of the carrying geodesic
    (points further out belong to other flow lines), with the intrinsic
    arclength parameter.  Charts violating the (2, max_A) embedding audit,
    max_A = 2 line_R + 1, are rejected with diagnostics."""
    line_R = float(sample.params.rho) + 1.0
    max_A = 2 * line_R + 1.0
    charts = {}
    for xi, vs in sample.points.items():
        chart = charts[str(xi)] = FlowLineChart(xi, line_R)
        for v in vs:
            chart.add(v)
    accepted, rejected = {}, []
    for key, chart in charts.items():
        mu, A = chart.audit_embedding()
        if A <= max_A:
            accepted[key] = chart
        else:
            rejected.append({"xi_plus": key, "mu_hat": mu, "A_hat": A})
    return accepted, rejected


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
    rejected_charts: list = field(default_factory=list)
    _by_chart: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        for U in self.elements:
            self._by_chart.setdefault(U.chart_key, []).append(U)

    def elements_containing(self, chart_key: str, t: Fraction):
        return [U for U in self._by_chart.get(chart_key, ())
                if U.lo <= t < U.hi]

    def member_elements(self, v: GroupElement, xi_plus):
        """Cover elements containing the flow point v on the chart of the
        forward endpoint xi_plus, the chart every flow triple belongs to."""
        key = str(xi_plus)
        chart = self.charts.get(key)
        t = None if chart is None else chart.members.get(v)
        return [] if t is None else self.elements_containing(key, t)


def build_long_thin_cover(sample: CoarseFlowSample,
                          beta: Fraction) -> LongThinCover:
    """Two staggered families of parameter intervals of length 4*beta
    (offsets 0 and 2*beta) along each flow-line chart.  Order and
    beta-longness are measured on the sample."""
    if not sample.size:
        raise ValueError("empty coarse flow sample")
    beta = Fraction(beta)
    charts, rejected = build_charts(sample)
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
    cover = LongThinCover(elements, charts, rejected_charts=rejected)
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
                  params: ThickParams) -> set:
    """The cover elements containing every flow point of (g, xi) at time
    tau, that is, whose pullback by iota_tau contains (g, xi); empty when
    the pair has no flow point."""
    pts = flow_point(g, xi, tau, params)
    if not pts:
        return set()
    return set.intersection(*(set(cover.member_elements(v, xi))
                              for v in pts))


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
        "rejected_charts": cover.rejected_charts,
        "order_measured": cover.order_measured,
        "order_extended": order_extended,
        "extension_restricts": extension_restricts,
        "longness_ok": cover.longness_ok,
        "tau": tau_rep,
        "fsubset_failures": fsub,
        "undecided_xi": 0,  # classify always decides
        # always so: orbit_points_near keeps a candidate whose certified
        # compare with rho ends Undecided, which may lie just beyond rho
        "closure_approximate": True,
    }
    if pinned_order is not None:
        worst = max(cover.order_measured, order_extended or 0)
        report["order_within_pin"] = worst <= pinned_order
    return report
