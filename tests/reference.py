"""Brute-force references that the tests compare the program with.

Each one answers a question the program answers by a faster route: the
Behrstock scan against the `pair_maxmin` certificate, the integer scan
for large projections at a rational point against the Euclid walk of
`rational_hits`, the (P4) scan of every q up to a cap against the banded
scan over the pair's window, the path enumeration against
`ProjComplexGraph.dmax`, the walk in a window graph against the walk
along the linear order, one walk per ladder level against the walk that
finds both, the integer scan at a rational point, sorted, against the
chain of `rational_hits` (so the chain oracle shares no Euclid walk with
the program), the thin certificate tested one delta at a time in
Fractions against its closed-form step, the candidate-by-candidate loop
of those certificates and one-level walks against `find_long_member`
(it calls neither the program's walk, its chain nor its certificate),
the comparison of every pair of certified intervals in Fractions, naming
the rival that reaches furthest right, against the integer sweep of
`verify_thin_theorem`, the charts built one triple at a time against
`build_charts`, the foot times and line distances of mpmath against the
exact chart of `_Ray`, the iota_tau
balls filled anew for every pair against those `flow_elements` keeps,
the orbit points of a bounding box, enumerated from coprime bottom rows
and filtered by interval distances, against the flood fill of
`flow_cover`, the thin nerve map's margins, weights and defect in
Fractions against `partition_of_unity` and `defect`, and mpmath's
interval enclosure of a surd against the integer enclosure of the thin
certificates.  `penetration_depth` is the depth identity log(d/2) as a
certified real, which only the tests evaluate.
They live beside the tests, so no simplification of the program can
validate itself through them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import iv

from horocover.certified import (
    INFINITE,
    CertifiedReal,
    fraction_to_iv,
    surd_iv,
)
from horocover.flow_cover import FlowLineChart, flow_point
from horocover.hyperbolic import (
    GEN_S,
    IDENTITY,
    Horoball,
    _geodesic_circle,
    chart_point,
    geodesic_point,
    orbit_point,
    proj_dist_frac,
    proj_dist_int,
    rational_pair,
)
from horocover.projection_complex import ProjComplexGraph, Window
from horocover.projection_data import (
    WindowRequiredError,
    brute_force_large_projections,
    enumerate_large_projections,
    pair_maxmin,
)
from horocover.surd import INFINITY, PHI, SQRT2, Surd
from horocover.thin_cover import (
    BASE_INDEX,
    ThinReport,
    base_members,
    is_theta5_thin,
)


# -- the depth identity -----------------------------------------------------


def penetration_depth(Y: Horoball, u, v) -> CertifiedReal:
    """log(d/2) for d the projection distance: the depth to which the full
    geodesic (u, v) dips into the open horoball (negative when disjoint)."""
    u, v = chart_point(u), chart_point(v)
    t = Y.tangency
    if u == t or v == t:
        raise ValueError("endpoint at the tangency point of Y")
    if u == v:
        raise ValueError("penetration depth needs distinct endpoints")
    d = proj_dist_frac(Y, u, v)
    if d == 2:
        return CertifiedReal(exact=Fraction(0))
    return CertifiedReal(refine=lambda dps: iv.log(fraction_to_iv(d) / 2))


# -- the Behrstock constant -------------------------------------------------


def calibrate_behrstock(qmax: int):
    """Exhaustive (P3) scan over the window 0 <= p <= q <= qmax.

    Every pair of distinct horoballs is equivalent under the group action to
    a pair handled here (translate one tangency into [0,1] and shift), so
    the window determines the constant.  Each new maximum of the certified
    sup-min is re-evaluated at its crossing point by `proj_dist_frac`.
    Returns (theta_hat, (Y, Y', xi)).
    """
    window = [Horoball(1, 0)] + [Horoball(p, q) for q in range(1, qmax + 1)
                                 for p in range(q + 1) if math.gcd(p, q) == 1]
    best, witness = Fraction(0), None
    for i, Y in enumerate(window):
        for Yp in window[i + 1:]:
            val, xi = pair_maxmin(Y, Yp)
            if val > best:
                got = min(proj_dist_frac(Y, Yp, xi), proj_dist_frac(Yp, Y, xi))
                if got != val:
                    raise AssertionError(
                        f"crossing check failed for {Y},{Yp}: {got} != {val}")
                best, witness = val, (Y, Yp, xi)
    return best, witness


# -- large projections at a rational point ----------------------------------


def brute_force_reference(u, v, theta: Fraction, qmax: int):
    """Every horoball p/q with q <= qmax and d^pi_{p/q}(u, v) > theta, by
    the integer test n theta.den > theta.num f_u f_v, sorted by (q, p).

    It scans every q up to qmax, with no window from the pair, and pads
    each q u and q v by a width that does not shrink with q: a hit has
    |q u - p| |q v - p| < B = |u - v| / theta, so p lies within sqrt(B)
    of q u or q v, or within B / q of the one finite endpoint (B = 1 /
    theta) when the other is infinity.  This is the oracle the banded,
    windowed `brute_force_large_projections` replaced."""
    u, v = chart_point(u), chart_point(v)
    if u == v:
        return []
    tn, td = theta.numerator, theta.denominator
    U, V = rational_pair(u), rational_pair(v)
    finite = [w for w in (U, V) if w[1] != 0]
    num = Fraction(1) if len(finite) < 2 else abs(u - v)
    B = num / theta
    root = math.isqrt(math.ceil(B)) + 1
    candidates = [(1, 0)] if len(finite) == 2 else []
    for q in range(1, qmax + 1):
        pad = root if len(finite) == 2 else \
            -(-B.numerator // (B.denominator * q)) + 1
        ps = set()
        for a, b in finite:
            center = (a * q) // b
            ps.update(range(center - pad, center + pad + 2))
        candidates += [(p, q) for p in sorted(ps) if math.gcd(p, q) == 1]
    hits = []
    for Y in candidates:
        n, fu, fv = proj_dist_int(Y, U, V)
        if fu and fv and n * td > tn * fu * fv:
            hits.append((Horoball(*Y), Fraction(n, fu * fv)))
    hits.sort(key=lambda t: (t[0].q, t[0].p))
    return hits


def enumerate_inf_rational_scan(w: Fraction, theta: Fraction):
    """Hits for the pair (infinity, a/b) at any theta > 0, convergents or
    not, by a scan of the lattice L = {(q, y) : y = q a - p b}: Y = p/q in
    lowest terms is a hit when q >= 1, y != 0 and q |y| < C = b / theta.

    The boxes X <= q <= 2X, |y| <= C / X, X = 1, 2, 4, ... < C, cover that
    region.  Each is scaled to a square of side about M = X b td, where L
    has determinant M^2 theta and a Lagrange-reduced basis (u, v), |u| <=
    |v| (Cohen, A Course in Computational Algebraic Number Theory, 1.3.14),
    so only the lines c v + Z u with |c| <= sqrt(5) M |u| / det, O(1 /
    sqrt(theta)) of them, can meet it; each is cut to the box exactly, and
    of the line through 0, the multiples of u, only +-u can be a hit.  The
    scan takes O(log C) boxes and no continued fraction: the basis is
    reduced in the rescaled norm, warm from the previous box.
    """
    a, b = w.numerator, w.denominator
    tn, td = theta.numerator, theta.denominator
    hits = {}
    u, v = (1, 0), (0, -1)  # (q, p) of the points (1, a) and (0, b)
    X = 1
    while X * tn < b * td:
        s1, s2, M = b * td, X * X * tn, X * b * td

        def point(c):
            return c[0] * s1, (c[0] * a - c[1] * b) * s2

        u, v = _lagrange(u, v, point)
        (u0, u1), (v0, v1) = point(u), point(v)
        det, nu = abs(u0 * v1 - u1 * v0), u0 * u0 + u1 * u1
        K = math.isqrt(5 * M * M * nu // (det * det)) + 1
        for c in range(-K, K + 1):
            # the integers t with c v + t u in [M, 2M] x [-M, M]
            lo, hi = -math.inf, math.inf
            for coef, off, low, high in ((u0, c * v0, M, 2 * M),
                                         (u1, c * v1, -M, M)):
                if coef < 0:
                    coef, off, low, high = -coef, -off, -high, -low
                if coef == 0 and not low <= off <= high:
                    lo, hi = 1, 0
                elif coef:
                    lo = max(lo, -((off - low) // coef))
                    hi = min(hi, (high - off) // coef)
            # gcd(q, p) = gcd(t, c), the basis being unimodular
            for t in range(lo, hi + 1) if c else \
                    [t for t in (-1, 1) if lo <= t <= hi]:
                q, p = t * u[0] + c * v[0], t * u[1] + c * v[1]
                e = abs(q * a - p * b)
                if q >= 1 and e and q * e * tn < b * td \
                        and math.gcd(p, q) == 1:
                    hits[(p, q)] = Fraction(b, q * e)
        X *= 2
    out = [(Horoball(p, q), d) for (p, q), d in hits.items()]
    out.sort(key=lambda t: (t[0].q, t[0].p))
    return out


def _lagrange(u, v, point):
    """Lagrange's reduction of the lattice basis point(u), point(v), u and v
    integer coefficient pairs: returns (u, v) with |point(u)| <=
    |point(v)| and |<point(u), point(v)>| <= |point(u)|^2 / 2."""
    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1]

    U, V = point(u), point(v)
    if dot(U, U) > dot(V, V):
        u, v, U, V = v, u, V, U
    while True:
        nu = dot(U, U)
        m = (2 * dot(U, V) + nu) // (2 * nu)  # the integer nearest <U,V>/nu
        v = v[0] - m * u[0], v[1] - m * u[1]
        V = V[0] - m * U[0], V[1] - m * U[1]
        if dot(V, V) >= nu:
            return u, v
        u, v, U, V = v, u, V, U


# -- projection-complex windows ---------------------------------------------


def geodesics(graph: ProjComplexGraph, X: Horoball, Z: Horoball):
    """All geodesic paths from X to Z."""
    on, dX, _dZ = graph.geodesic_dag(X, Z)

    def walk(v, path):
        if v == Z:
            yield path
            return
        for w in graph.adj[v]:
            if w in on and dX[w] == dX[v] + 1:
                yield from walk(w, path + [w])

    yield from walk(X, [X])


def dmax_brute(graph: ProjComplexGraph, X: Horoball, Z: Horoball,
               Y: Horoball) -> Fraction:
    """d^max of Y over geodesics X -> Z, every geodesic enumerated."""
    if Y == X or Y == Z:
        raise ValueError("the angle at an endpoint is undefined")
    best = Fraction(0)
    for path in geodesics(graph, X, Z):
        if Y in path[1:-1]:
            k = path.index(Y)
            best = max(best, proj_dist_frac(Y, path[k - 1], path[k + 1]))
    return best


def audit_window(window: Window, theta: Fraction) -> bool:
    """Self-consistency: enlarging the enumeration threshold to theta/4 must
    not change any pairwise graph distance on the original vertices."""
    graph = ProjComplexGraph(window)
    verts = set(window.vertices)
    for i, a in enumerate(window.vertices):
        for b in window.vertices[i + 1:]:
            for Y, _ in enumerate_large_projections(a, b, Fraction(theta) / 4):
                verts.add(Y)
    bigger = ProjComplexGraph(Window(tuple(verts), window.K))
    return all(graph.distance(a, b) == bigger.distance(a, b)
               for a in window.vertices for b in window.vertices)


def angle_table_equivariant(graph: ProjComplexGraph, g) -> bool:
    """The full angle table commutes with translation by g (exact)."""
    moved = ProjComplexGraph(Window(
        tuple(Y.translate(g) for Y in graph.vertices), graph.K))
    for X in graph.vertices:
        for Z in graph.vertices:
            if X == Z or graph.distance(X, Z) is None:
                continue
            for Y in graph.vertices:
                if Y in (X, Z):
                    continue
                a = graph.dmax(X, Z, Y)
                b = moved.dmax(X.translate(g), Z.translate(g), Y.translate(g))
                if a != b:
                    return False
    return True


# -- the thin-cover selection -----------------------------------------------


def select_Z(g, xi, ladder) -> Horoball | None:
    """Z(g, xi) by its definition at w = g^-1 xi, translated by g: the
    tangency horoball of a rational w, else the argmax of the values above
    Theta_4 from `enumerate_large_projections`, preferring those above
    Theta_5, the first in (q, p) order on a tie.  None at w = infinity and
    where no value exceeds Theta_4; raises WindowRequiredError where they
    accumulate."""
    w = g.inverse().apply_boundary(xi)
    if w is INFINITY:
        return None
    if isinstance(w, Fraction):
        return Horoball.at(w).translate(g)
    hits = enumerate_large_projections(INFINITY, w, ladder.Theta(4))
    top = [hit for hit in hits if hit[1] > ladder.Theta(5)] or hits
    return max(top, key=lambda hit: hit[1])[0].translate(g) if top else None


def walk_graph(xi, i: int, ladder, graph: ProjComplexGraph) -> Horoball:
    """Y_i(e, xi) measured in a window graph: candidates by d^max, nearest
    first, with the uniqueness and prefix audits of the selection."""
    X, Z = BASE_INDEX, select_Z(IDENTITY, xi, ladder)
    if graph.distance(X, Z) is None:
        raise WindowRequiredError("anchor window disconnected")
    Th = ladder.Theta(i)
    if abs(xi) >= Th:
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


def chain_reference(a: int, b: int, theta: Fraction) -> tuple:
    """The chain toward Horoball(a/b) by its definition: every V with
    d^pi_V(oo, a/b) > theta, from the integer scan
    `enumerate_inf_rational_scan` (not the Euclid walk of `rational_hits`),
    sorted by denominator (then |p|, then p), as (p, q, |q a - p b|)."""
    hits = sorted((V for V, _ in enumerate_inf_rational_scan(
        Fraction(a, b), theta)), key=lambda V: (V.q, abs(V.p), V.p))
    return tuple((V.p, V.q, abs(V.q * a - V.p * b)) for V in hits)


def chain_vertices(Z: Horoball, ladder) -> list:
    """The horoballs of `chain_reference` toward Z at the ladder's theta."""
    return [Horoball(p, q)
            for p, q, _ in chain_reference(Z.p, Z.q, ladder.theta)]


def walk_one_level(Z: Horoball, i: int, ladder, w) -> Horoball:
    """Y_i toward Z at a single level: the basepoint index when its angle
    |w| reaches Theta_i, else the first chain vertex whose angle between
    its neighbours, from `proj_dist_frac`, reaches Theta_i, else Z."""
    Th = ladder.Theta(i)
    if abs(w) >= Th:
        return BASE_INDEX
    path = [BASE_INDEX] + chain_vertices(Z, ladder) + [Z]
    for k in range(1, len(path) - 1):
        if proj_dist_frac(path[k], path[k - 1], path[k + 1]) >= Th:
            return path[k]
    return Z


def select_Yi_reference(h, xi, i: int, ladder) -> Horoball | None:
    """Y_i(h, xi) = h Y_i(e, w) at w = h^-1 xi, from `walk_one_level`
    toward Z(e, w); None where Z(e, w) is undefined."""
    w = h.inverse().apply_boundary(xi)
    try:
        Z = select_Z(IDENTITY, w, ladder)
    except WindowRequiredError:
        return None
    return None if Z is None else walk_one_level(Z, i, ladder, w).translate(h)


def member_delta(Y: Horoball, i: int, h, xi, ladder):
    """The delta of a certificate of (h, xi) in U(Y, i) by definition, or
    None: at w = h^-1 xi the vertex Y_i(e, w) of `walk_one_level` is Y0 =
    h^-1 Y, and `certify_reference` says "yes" at the cap 48."""
    w, Y0 = h.inverse().apply_boundary(xi), Y.translate(h.inverse())
    try:
        Z = select_Z(IDENTITY, w, ladder)
        if Z is None or walk_one_level(Z, i, ladder, w) != Y0:
            return None
        return certify_reference(Y0, i, w, Z, ladder, 48)[1]
    except WindowRequiredError:
        return None


def find_long_member_reference(g, xi, S, ladder):
    """S-longness by its definition, from `walk_one_level` and
    `certify_reference` alone: the candidates (Y, i) are the values of
    `select_Yi_reference` at h = g, then h = gs, for i = 1, then i = 2, in
    that order without repeats; the first with a `member_delta` at every
    gs gives (Y, i, [(gs, (gs)^-1 xi, delta) for s in S])."""
    cands = []
    for i in (1, 2):
        for h in [g] + [g * s for s in S.elements]:
            Y = select_Yi_reference(h, xi, i, ladder)
            if Y is not None and (Y, i) not in cands:
                cands.append((Y, i))
    for Y, i in cands:
        certificates = []
        for s in S.elements:
            delta = member_delta(Y, i, g * s, xi, ladder)
            if delta is None:
                break
            certificates.append(
                (g * s, (g * s).inverse().apply_boundary(xi), delta))
        else:
            return Y, i, certificates
    return None


def reference_steps(Y0, i, w, Z, ladder, max_halvings):
    """The steps of the thin certificate in Fractions, one step k per delta
    = 2^-(k+2), each delta tested in turn rather than in closed form:
    whether the tests that see no pole hold (the basepoint angle, and every
    competitor inside the interval or beyond Y0), and whether every test
    holds.  Values come from proj_dist_frac, infima are the least finite
    endpoint value, and every competitor of a fresh enumeration at w is
    re-tested at every delta.  A surd w enters with mpmath's enclosure.  At
    a rational w = a/b the competitors come from the brute-force scan over
    the pair's window, independent of the convergent enumeration: a hit
    Y = p/q has q |q a - p b| < b / theta, so q < b / theta."""
    def dpi(Y, e):
        return proj_dist_frac(Y, INFINITY, e)

    def inf(Y, lo, hi):
        vals = [d for d in (dpi(Y, lo), dpi(Y, hi)) if d is not INFINITE]
        return min(vals) if vals else None

    def above(d, m):
        return d is not None and d > m

    Th, Th4 = ladder.Theta(i), ladder.Theta(4)
    margin, margin4 = Th + ladder.theta_P, Th4 + ladder.theta_P
    if isinstance(w, Surd):
        lo0, hi0 = surd_enclosure(w)
        hits = enumerate_large_projections(INFINITY, w, Th4 / 2)
    else:
        lo0 = hi0 = w
        hits = brute_force_large_projections(INFINITY, w, Th4 / 2)
    hits = [V for V, _ in hits]
    for k in range(max_halvings):
        delta = Fraction(1, 4 << k)
        lo, hi = lo0 - 2 * delta, hi0 + 2 * delta
        if Y0 == BASE_INDEX:
            free = (lo > 0 or hi < 0) and min(abs(lo), abs(hi)) > margin
            pole = True
        else:
            free = max(abs(lo), abs(hi)) < Th and all(
                lo <= V.tangency <= hi or dpi(Y0, V.tangency) is INFINITE
                or dpi(Y0, V.tangency) > margin for V in hits if V != Y0)
            pole = above(inf(Y0, lo, hi), margin)
        yield free, free and pole and (above(inf(Z, lo, hi), margin4)
                                       or above(inf(Y0, lo, hi), margin4))


def certify_reference(Y0, i, w, Z, ladder, max_halvings):
    """The first delta of reference_steps at which every test holds."""
    for k, (_, ok) in enumerate(
            reference_steps(Y0, i, w, Z, ladder, max_halvings)):
        if ok:
            return "yes", Fraction(1, 4 << k)
    return "boundary-uncertain", None


def surd_enclosure(w: Surd, dps: int = 60) -> tuple[Fraction, Fraction]:
    """[lo, hi] about the surd w = (p + q sqrt d) / r from mpmath's interval
    arithmetic at dps digits, with its binary endpoints as exact Fractions."""
    old = iv.dps
    try:
        iv.dps = dps
        x = (iv.mpf(w.p) + w.q * iv.sqrt(iv.mpf(w.d))) / w.r
    finally:
        iv.dps = old
    return tuple((-1) ** sign * man * Fraction(2) ** exp
                 for sign, man, exp, _ in x._mpi_)


def overlaps_reference(members) -> list:
    """(n, h, Y') for each certificate (h, w, delta) of the n-th member (Y,
    i, certificates), in that order, whose interval meets an earlier one
    of the same translate h and level i certifying a member other than Y;
    of those rivals Y' is the one whose meeting intervals reach furthest
    right, ties to least (q, p).  Each pair of intervals is compared in
    Fractions.  The interval is [w - delta, w + delta], at a surd w the
    part [hi0 - delta, lo0 + delta] that every point of its enclosure [lo0,
    hi0] shares; an interval is earlier when its left end is smaller, or
    equal and given earlier."""
    ivals = []
    for n, (Y, i, certificates) in enumerate(members):
        for h, w, delta in certificates:
            lo0, hi0 = surd_enclosure(w) if isinstance(w, Surd) else (w, w)
            ivals.append((h, i, hi0 - delta, lo0 + delta, Y, n))
    out = []
    for k, (h, i, lo, hi, Y, n) in enumerate(ivals):
        reach = {}
        for k2, (h2, i2, lo2, hi2, Y2, _) in enumerate(ivals):
            if (h2, i2) == (h, i) and Y2 != Y and (lo2, k2) < (lo, k) \
                    and max(lo, lo2) <= min(hi, hi2):
                reach[Y2] = max(hi2, reach.get(Y2, hi2))
        if reach:
            out.append((n, h, max(reach, key=lambda V: (reach[V], -V.q,
                                                          -V.p))))
    return out


def verify_thin_reference(S, ladder, samples) -> ThinReport:
    """The thin theorem check pair by pair: boundary-uncertain where large
    projections accumulate, so that Z(g, xi) is undefined (equivalent
    quadratic surds share their periodic tail, and with it the class
    limits, so every translate gs agrees), else S-longness from
    find_long_member_reference; then disjointness from every pair of the
    members' certified intervals (`overlaps_reference`), an overlap
    witness naming the rival that reaches furthest right, ties to least
    denominator, then numerator."""
    rep = ThinReport(ladder=ladder.to_dict())
    members, pairs = [], []
    for g, xi in samples:
        if not is_theta5_thin(g, xi, ladder):
            continue
        rep.pairs_tested += 1
        try:
            select_Z(g, xi, ladder)
        except WindowRequiredError as err:
            rep.boundary_uncertain += 1
            rep.witnesses.append({"g": repr(g), "xi": str(xi),
                                  "failure": "boundary-uncertain",
                                  "reason": str(err)})
            continue
        got = find_long_member_reference(g, xi, S, ladder)
        if got is None:
            rep.long_failures += 1
            rep.witnesses.append({"g": repr(g), "xi": str(xi),
                                  "failure": "not S-long"})
            continue
        members.append(got)
        pairs.append((g, xi))
    for n, h, Yp in overlaps_reference(members):
        rep.disjointness_failures += 1
        (g, xi), (Y, i, _) = pairs[n], members[n]
        rep.witnesses.append({"g": repr(g), "xi": str(xi), "h": repr(h),
                              "failure": "overlap",
                              "pair": [repr(Y), repr(Yp), i]})
    return rep


# -- flow-line charts --------------------------------------------------------


def charts_per_triple(triples, line_R: float) -> dict:
    """Charts built one triple (xi_+, v) at a time, in the order recorded:
    the chart of str(xi_+) is made at its endpoint's first triple, and
    every triple offers its v again, admitted or not before."""
    charts = {}
    for xi, v in triples:
        key = str(xi)
        if key not in charts:
            charts[key] = FlowLineChart(xi, line_R)
        charts[key].add(v)
    return charts


def tau_reference(S, params, pairs, cover, tau_max) -> tuple:
    """`choose_tau`'s report and the `order_extended` of
    `verify_thick_theorem`, with every iota_tau ball filled anew: at each
    tau every pair (g, xi) meets the cover elements of its gs one s at a
    time, and the order pass fills each pair again at the tau chosen."""

    def flow_elements(h, xi, tau):
        chart, common = cover.charts.get(str(xi)), None
        for v in flow_point(h, xi, tau, params):
            t = chart.members.get(v) if chart else None
            here = set() if t is None else set(
                cover.elements_containing(str(xi), t))
            common = here if common is None else common & here
        return common or set()

    tau = params.beta
    report = {"tau_chosen": None, "attempts": [],
              "status": "not-found-within-budget"}
    while tau <= tau_max:
        failures = 0
        for g, xi in pairs:
            common = None
            for s in S:
                here = flow_elements(g * s, xi, tau)
                common = here if common is None else common & here
                if not common:
                    failures += 1
                    break
        report["attempts"].append({"tau": str(tau), "failures": failures})
        if failures == 0:
            report["tau_chosen"] = str(tau)
            report["status"] = "ok"
            return report, max((len(flow_elements(g, xi, tau))
                                for g, xi in pairs), default=0)
        tau *= 2
    return report, None


def line_position(xi, key, dps: int = 60) -> tuple:
    """(foot time, distance) of the orbit point z = (a + i) / n of key =
    (a, n) on the line through x0 = i toward xi, in mpmath at `dps` digits,
    without `_Ray`.  For xi = infinity the line is the imaginary axis, the
    foot time is log |z| and sinh d(z, line) = |Re z| / Im z.  Otherwise
    the other end of the line is -1/xi, and phi(w) = (xi w + 1) / (w - xi)
    sends it to a ray from 0: the foot time is log |phi(z)| - log |phi(i)|
    and the distance asinh |tan(arg phi(z) - arg phi(i))|."""
    a, n = key
    with mpmath.workdps(dps):
        z = mpmath.mpc(a, 1) / n
        if xi is INFINITY:
            return mpmath.log(abs(z)), mpmath.asinh(abs(z.real) / z.imag)
        if isinstance(xi, Surd):
            x = (mpmath.mpf(xi.p) + xi.q * mpmath.sqrt(xi.d)) / xi.r
        else:
            x = mpmath.mpf(xi.numerator) / xi.denominator
        w, at_i = ((x * v + 1) / (v - x) for v in (z, mpmath.mpc(0, 1)))
        return (mpmath.log(abs(w)) - mpmath.log(abs(at_i)),
                mpmath.asinh(abs(mpmath.tan(mpmath.arg(w)
                                            - mpmath.arg(at_i)))))


def chart_reference(xi, keys, line_R, dps: int = 60) -> dict:
    """The chart of the line through x0 = i toward xi from `line_position`:
    each key (a, n) whose orbit point lies within line_R of the line, in
    the order of keys, mapped to its foot time rounded to the nearest
    quarter.  Raises AssertionError when a decision lies within
    10^(20 - dps) of its threshold."""
    out = {}
    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** (20 - dps)
        R, half = mpmath.mpf(line_R.numerator) / line_R.denominator, \
            mpmath.mpf(1) / 2
        for key in keys:
            time, dist = line_position(xi, key, dps)
            k = mpmath.floor(4 * time + half)
            if abs(dist - R) <= tol or \
                    abs(abs(4 * time - k) - half) <= tol:
                raise AssertionError(f"undecided at {key}")
            if dist <= R:
                out[key] = Fraction(int(k), 4)
    return out


# -- orbit points near a ray ---------------------------------------------------


def iv_acosh(x):
    return iv.log(x + iv.sqrt(x * x - 1))


def hyperbolic_distance(p1, p2) -> CertifiedReal:
    """Distance between interior points given as rational pairs or pairs of
    CertifiedReal coordinates."""

    def val(w):
        if isinstance(w, CertifiedReal):
            if w.exact is not None:
                return fraction_to_iv(w.exact)
            return w._refine(iv.dps)
        return fraction_to_iv(Fraction(w))

    def _d():
        x1, y1 = val(p1[0]), val(p1[1])
        x2, y2 = val(p2[0]), val(p2[1])
        arg = 1 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2 * y1 * y2)
        return iv_acosh(arg)

    return CertifiedReal(refine=lambda dps: _d())


def _large_roots(s_lo: float, s_hi: float, c: int) -> tuple[float, float]:
    """[lo, hi] holding every d >= c with d / (c^2 + d^2) in [s_lo, s_hi]:
    the map falls from 1/(2c) at d = c to 0, and its value s is taken at
    the larger root (1 + sqrt(1 - 4 s^2 c^2)) / (2 s)."""

    def root(s):
        if s <= 0:
            return math.inf
        if 2 * s * c >= 1:
            return float(c)
        return (1 + math.sqrt(1 - 4 * s * s * c * c)) / (2 * s)

    return root(s_hi), root(s_lo)


def orbit_points_in_box(xl: float, xh: float, yl: float, yh: float) -> set:
    """Every orbit point (a' + i) / n with xl <= a'/n <= xh and yl <= 1/n
    <= yh, as keys (a', n), from the bottom rows (c, d) of v = (a, b; c, d):
    v x0 = ((a c + b d) + i) / (c^2 + d^2).  For c > 0, a/c - x = d / (c n)
    and c^2 + d^2 >= 2 c |d| put a/c within 1/(2 c^2) of x, so a runs over
    a short range; d runs over the class of a^-1 mod c, where d / (c^2 +
    d^2) = a - c x, as |d| <= c or within the large roots of that value
    over the box (`_large_roots`), padded and then checked exactly."""
    nmin, nmax = math.ceil(1 / yh), math.floor(1 / yl)
    out = set()
    if nmin <= 1 <= nmax:  # c = 0: v = T^b
        out |= {(b, 1) for b in range(math.ceil(xl), math.floor(xh) + 1)}
    for c in range(1, math.isqrt(nmax) + 1):
        dmax = math.isqrt(nmax - c * c)
        for a in range(math.floor(c * xl) - 1, math.ceil(c * xh) + 2):
            if math.gcd(a, c) != 1:
                continue
            d0 = pow(a, -1, c) if c > 1 else 0
            spans = [(-c, c)]
            s_lo, s_hi = a - c * xh, a - c * xl
            for sign, (lo, hi) in ((1, _large_roots(s_lo, s_hi, c)),
                                   (-1, _large_roots(-s_hi, -s_lo, c))):
                if lo > dmax:
                    continue
                lo = max(c, math.floor(lo * (1 - 1e-9)) - 2)
                hi = min(dmax, math.ceil(min(hi, dmax) * (1 + 1e-9)) + 2)
                spans.append((lo, hi) if sign > 0 else (-hi, -lo))
            for lo, hi in spans:
                lo, hi = max(lo, -dmax), min(hi, dmax)
                for d in range(lo + (d0 - lo) % c, hi + 1, c):
                    n = c * c + d * d
                    if not nmin <= n <= nmax:
                        continue
                    b = (a * d - 1) // c
                    key = a * c + b * d
                    if xl * n <= key <= xh * n:
                        out.add((key, n))
    return out


def _cosh_iv(r: Fraction):
    e = iv.exp(fraction_to_iv(Fraction(r)))
    return (e + 1 / e) / 2


def tube_reference(g, xi, t0, t1, rho, dps: int = 40) -> set:
    """The orbit points within rho of the times [t0, t1] of the ray from
    g x0 toward xi, as keys (a, n), by enumeration and certified distances:
    the segment is sampled every 1/2 in time (`geodesic_point`), each sample
    gives the Euclidean box of its hyperbolic ball of radius rho + 1/4 +
    1/100, which together hold the rho-neighbourhood, and the box's orbit
    points (`orbit_points_in_box`) are filtered in mpmath intervals at
    `dps`.  The distance to the segment is the distance to its line when
    the foot lies between the ends (Pythagoras: cosh d(foot, end) = cosh
    d(z, end) / cosh d(z, line) <= cosh(t1 - t0)), else to the nearer end.
    Raises AssertionError when the intervals cannot separate a candidate
    from rho."""
    t0, t1, rho = Fraction(t0), Fraction(t1), Fraction(rho)
    steps = max(1, math.ceil(2 * (t1 - t0)))
    radius = float(rho) + 0.26
    cands = set()
    for k in range(steps + 1):
        x, y = (float(c) for c in geodesic_point(g, xi, t0 + (t1 - t0) * k
                                                 / steps))
        w = y * math.sinh(radius)
        cands |= orbit_points_in_box(x - w, x + w, y * math.exp(-radius),
                                     y * math.exp(radius))
    xi = chart_point(xi)
    x0, y0 = orbit_point(g)
    circle = _geodesic_circle(x0, y0, xi)
    old = iv.dps
    try:
        iv.dps = dps
        ends = [tuple(c._refine(dps) if c.exact is None
                      else fraction_to_iv(c.exact)
                      for c in geodesic_point(g, xi, t)) for t in (t0, t1)]
        if circle is not None:
            cen, rad = surd_iv(circle[0]), iv.sqrt(surd_iv(circle[1]))
        limit, span = _cosh_iv(rho), _cosh_iv(t1 - t0)
        out = set()
        for a, n in cands:
            x, y = fraction_to_iv(Fraction(a, n)), fraction_to_iv(
                Fraction(1, n))
            if circle is None:
                sinh_line = abs(x - fraction_to_iv(x0)) / y
            else:
                sinh_line = abs((x - cen) ** 2 + y * y - rad * rad) / (
                    2 * rad * y)
            line = iv.sqrt(1 + sinh_line ** 2)
            to_end = [1 + ((x - px) ** 2 + (y - py) ** 2) / (2 * y * py)
                      for px, py in ends]
            nearer = iv.mpf([min(e.a for e in to_end),
                             min(e.b for e in to_end)])
            inside = [e / line <= span for e in to_end]
            if all(v is True for v in inside):
                dist = line
            elif False in inside:
                dist = nearer
            else:  # the foot is at an end: both distances nearly agree
                dist = iv.mpf([line.a, nearer.b])
            if dist.b < limit.a:
                out.add((a, n))
            elif not dist.a > limit.b:
                raise AssertionError(f"undecided at {(a, n)}")
        return out
    finally:
        iv.dps = old


# -- the thin nerve map -----------------------------------------------------


def nerve_defect_reference(ladder, ks) -> Fraction:
    """The ell^1 defect of the boundary-only thin nerve map on the sample
    {1/2 + 1/k : k in ks} and its images under the inversion z -> -1/z, in
    Fractions: the margin of x in a member (Y, i) of `base_members` is its
    least distance |x - y| to a sample point y outside (Y, i), 1 when there
    is none; the weights are the margins over their sum; the defect is the
    largest ell^1 distance between the weights at -1/x and those at x moved
    by (Y, i) -> (S Y, i)."""
    xs = [Fraction(1, 2) + Fraction(1, k) for k in ks]
    sample = xs + [-1 / x for x in xs]
    members = {x: set(base_members(x, ladder)) for x in sample}

    def weights(x) -> dict:
        margins = {}
        for e in members[x]:
            margins[e] = min((abs(x - y) for y in sample
                              if e not in members[y]), default=Fraction(1))
        total = sum(margins.values())
        return {e: m / total for e, m in margins.items()}

    worst = Fraction(0)
    for x in xs:
        moved = weights(-1 / x)
        pushed = {(Y.translate(GEN_S), i): w
                  for (Y, i), w in weights(x).items()}
        worst = max(worst, sum(abs(moved.get(e, 0) - pushed.get(e, 0))
                               for e in set(moved) | set(pushed)))
    return worst


# -- surds ------------------------------------------------------------------


def sqrt_of(n: int) -> Surd:
    return Surd(0, 1, n, 1)


def surd_sample_set() -> list[Surd]:
    """PHI, SQRT2 and 1 + sqrt(3), with their conjugates."""
    base = [PHI, SQRT2, Surd(1, 1, 3, 1)]
    return base + [s.conjugate() for s in base]
