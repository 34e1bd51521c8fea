"""Thick cover: classification, the filtered orbit-point predicate against
the per-candidate loop it replaced, the per-ray walk against the per-point
one, flow-line charts against their per-triple construction, the staggered
interval cover, and pullback longness."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv

from horocover import flow_cover
from horocover.certified import (
    INFINITE,
    CertifiedReal,
    Undecided,
    fraction_to_iv,
    iv_acos,
    surd_iv,
)
from horocover.flow_cover import (
    FlowLineChart,
    ThickCertificate,
    ThickParams,
    _NEIGHBORS,
    _square_bounds,
    _twice_cosh_minus_2,
    build_charts,
    build_long_thin_cover,
    choose_tau,
    classify,
    flow_elements,
    flow_point,
    fsubset_check,
    orbit_points_near,
    sample_coarse_flow,
    verify_thick_theorem,
)
from horocover.hyperbolic import (
    BASEPOINT,
    GEN_S,
    GEN_T,
    IDENTITY,
    GroupElement,
    Horoball,
    _geodesic_circle,
    chart_point,
    geodesic_point,
    hyperbolic_distance,
    locate,
    orbit_point,
    word_ball,
)
from horocover.surd import INFINITY, PHI, SQRT2, Surd
from reference import charts_per_triple, surd_sample_set
from test_hyperbolic import reference_locate

# thick and thin surd directions: (1, 0, c, 1) PHI = [0; c, 1, 1, ...]
# has the projection c + 1/phi at 0/1; the projections toward sqrt(2)/4 =
# [0; 2, (1, 4)] tend to 4 sqrt(2) > Theta without attaining it
SQRT2_4 = Surd(0, 1, 2, 4)
DIRECTIONS = surd_sample_set() + [SQRT2_4] + [
    GroupElement(1, 0, c, 1).apply_boundary(PHI) for c in (3, 7, 40)]


@pytest.fixture(scope="module")
def params():
    return ThickParams(Theta=Fraction(5437, 1000), rho=Fraction(2),
                       beta=Fraction(3))


@pytest.fixture(scope="module")
def walk(params):
    """The sample at word radius 3, and each orbit_points_near result of
    its walk as a pair (forward endpoint, list), in call order."""
    xis, lists = [], []

    def point(g, xi, t):
        xis.append(xi)
        return geodesic_point(g, xi, t)

    def near(*args):
        lists.append(orbit_points_near(*args))
        return lists[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_cover, "geodesic_point", point)
        mp.setattr(flow_cover, "orbit_points_near", near)
        sample = sample_coarse_flow(params, 3, [
            PHI, SQRT2, GEN_T.apply_boundary(PHI),
            GEN_S.apply_boundary(SQRT2)])
    return sample, list(zip(xis, lists, strict=True))


@pytest.fixture(scope="module")
def sample(walk):
    return walk[0]


@pytest.fixture(scope="module")
def cover(sample, params):
    return build_long_thin_cover(sample, params.beta)


class TestClassify:
    def test_rational_is_thin(self, params):
        res = classify(IDENTITY, Fraction(1, 3), params.Theta)
        Y, d = res
        assert Y == Horoball(1, 3) and d is INFINITE

    def test_quadratic_is_thick(self, params):
        res = classify(IDENTITY, PHI, params.Theta)
        assert isinstance(res, ThickCertificate)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([GEN_S, GEN_T, GEN_T.inverse()]),
                    max_size=12).map(lambda w: math.prod(w, start=IDENTITY)),
           st.sampled_from(DIRECTIONS))
    def test_classify_equivariant(self, params, g, xi):
        base = classify(IDENTITY, xi, params.Theta)
        moved = classify(g, g.apply_boundary(xi), params.Theta)
        if isinstance(base, ThickCertificate):
            assert isinstance(moved, ThickCertificate)
            assert moved.sup == base.sup
        else:
            assert moved == (base[0].translate(g), base[1])

    def test_thin_surd_direction(self, params):
        xi = GroupElement(1, 0, 7, 1).apply_boundary(PHI)
        Y, d = classify(IDENTITY, xi, params.Theta)
        assert Y == Horoball(0, 1) and d > params.Theta

    def test_thin_by_class_limit(self, params):
        # no convergent attains the supremum 4 sqrt(2); the witness is the
        # first convergent above Theta, p/q with 1/(q |q xi - p|) = d
        Y, d = classify(IDENTITY, SQRT2_4, params.Theta)
        assert d > params.Theta
        assert d == (abs(SQRT2_4 * Y.q - Y.p) * Y.q).inverse()

    def test_depth_bound(self, params):
        # D_max = log(Theta/2) pinned to 1
        assert params.depth_bound == pytest.approx(1.0, abs=1e-3)


def _midpoint(c: CertifiedReal) -> Fraction:
    """The midpoint of the dps-40 enclosure of c."""
    lo, hi = c.interval(40)
    return (lo + hi) / 2


def reference_orbit_points_near(point, rho, slack=0.05):
    """The per-candidate loop the filter replaced: a float prefilter that
    drops d > rho + slack, then a certified compare of every candidate it
    leaves, kept when Undecided."""
    px, py = point
    if isinstance(px, CertifiedReal):
        sx, sy = _midpoint(px), _midpoint(py)
    else:
        sx, sy = Fraction(px), Fraction(py)
    h = locate((sx, sy))
    out = []
    for u in word_ball(2):
        v = h * u
        ox, oy = orbit_point(v)
        fx, fy = float(ox), float(oy)
        arg = 1 + ((fx - float(sx)) ** 2 + (fy - float(sy)) ** 2) / (
            2 * fy * float(sy))
        if math.acosh(max(arg, 1.0)) > float(rho) + slack:
            continue
        try:
            if hyperbolic_distance((ox, oy), point).compare(
                    rho, max_dps=60) <= 0:
                out.append(v)
        except Undecided:
            out.append(v)
    return out


RHO = Fraction(2)
# the ray from G_TIE x0 toward SQRT2 has G_TIE in the neighbour set of its
# point at t = RHO, so its start is a candidate at distance exactly t
G_TIE = GroupElement(0, -1, 1, 2)
WORDS = st.lists(st.sampled_from([GEN_S, GEN_T, GEN_T.inverse()]),
                 max_size=6).map(lambda w: math.prod(w, start=IDENTITY))


def _no_compare(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certified compare called")

    monkeypatch.setattr(CertifiedReal, "compare", refuse)


def _starts_kept(g, t, origin):
    pt = geodesic_point(g, SQRT2, t)
    m = tuple(_midpoint(c) for c in pt)
    start = orbit_point(g)
    assert any(orbit_point(locate(m) * u) == start for u in _NEIGHBORS)
    kept = orbit_points_near(pt, RHO, (g, t) if origin else None)
    return any(orbit_point(v) == start for v in kept)


class TestOrbitPointsNear:
    @given(st.integers(-20, 20), st.integers(0, 20))
    def test_square_bounds(self, lo, width):
        squares = [s * s for s in range(lo, lo + width + 1)]
        assert _square_bounds(lo, lo + width) == (min(squares), max(squares))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(word_ball(3)), WORDS,
           st.sampled_from([PHI, SQRT2]),
           st.sampled_from(list(ThickParams(Fraction(6), RHO,
                                            Fraction(3)).t_grid())),
           st.booleans())
    def test_equals_reference_on_rays(self, g, w, xi, t, origin):
        pt = geodesic_point(g, w.apply_boundary(xi), t)
        got = orbit_points_near(pt, RHO, (g, t) if origin else None)
        assert got == reference_orbit_points_near(pt, RHO)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(-3, 3, max_denominator=12),
           st.fractions(Fraction(1, 12), 4, max_denominator=12),
           st.sampled_from([Fraction(1, 2), Fraction(1), RHO]))
    def test_equals_reference_on_rational_points(self, x, y, rho):
        assert orbit_points_near((x, y), rho) == \
            reference_orbit_points_near((x, y), rho)

    @pytest.mark.parametrize("origin", [True, False])
    def test_start_near_rho_decided_without_compare(self, monkeypatch,
                                                    origin):
        # 2^-40 off the tie, the enclosure alone separates the start
        _no_compare(monkeypatch)
        eps = Fraction(1, 2 ** 40)
        assert _starts_kept(G_TIE, RHO - eps, origin)
        assert not _starts_kept(G_TIE, RHO + eps, origin)

    def test_tie_kept_without_compare(self, monkeypatch):
        _no_compare(monkeypatch)
        assert _starts_kept(G_TIE, RHO, origin=True)

    def test_tie_without_origin_is_kept_as_undecided(self):
        assert _starts_kept(G_TIE, RHO, origin=False)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-64, 64), st.integers(8, 64), st.booleans())
    @example(-52, 32, True)  # boxes where the drop bound is tight
    @example(-48, 10, True)
    def test_filter_sound_on_a_wide_box(self, i, j, keep):
        # a point known only to a box of width 1/8 at every precision:
        # with the fallback compare forced, what the filter keeps must be
        # within rho at every sampled box point, and what it drops beyond
        x, y, w = Fraction(i, 32), Fraction(j, 32), Fraction(1, 16)
        point = tuple(CertifiedReal(refine=lambda dps, c=c: iv.mpf(
            [fraction_to_iv(c - w).a, fraction_to_iv(c + w).b]))
            for c in (x, y))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CertifiedReal, "compare",
                       lambda self, other, max_dps: -1 if keep else 1)
            kept = orbit_points_near(point, RHO)
        c_lo, c_hi = _twice_cosh_minus_2(RHO)
        h = locate((x, y))
        for v in (h * u for u in _NEIGHBORS):
            ox, oy = orbit_point(v)
            grid = [(x + k * w / 2, y + m * w / 2)
                    for k in range(-2, 3) for m in range(-2, 3)]
            grid.append((min(max(ox, x - w), x + w),
                         min(max(oy, y - w), y + w)))
            # 2 (cosh d - 1) at each sampled point of the box
            vals = [((ox - gx) ** 2 + (oy - gy) ** 2) / (oy * gy)
                    for gx, gy in grid]
            if keep and v not in kept:
                assert min(vals) > c_lo
            if not keep and v in kept:
                assert max(vals) < c_hi


def reference_geodesic_point(g, xi, t):
    """geodesic_point as it was before the per-ray cache: the circle, the
    start angle by iv_acos and its half-angle tangent, all redone at every
    t."""
    xi = chart_point(xi)
    x0, y0 = g.apply_point(*BASEPOINT)

    def tv():
        return fraction_to_iv(Fraction(t))

    if xi is INFINITY:
        return (CertifiedReal(exact=x0), CertifiedReal(
            refine=lambda dps: fraction_to_iv(y0) * iv.exp(tv())))
    circ = _geodesic_circle(x0, y0, xi)
    if circ is None:
        return (CertifiedReal(exact=x0), CertifiedReal(
            refine=lambda dps: fraction_to_iv(y0) * iv.exp(-tv())))
    c, r2 = circ
    toward_zero = (xi - c).sign() > 0

    def coords():
        civ = surd_iv(c)
        riv = iv.sqrt(surd_iv(r2))
        theta0 = iv_acos((fraction_to_iv(x0) - civ) / riv)
        u0 = iv.tan(theta0 / 2)
        u = u0 * iv.exp(-tv()) if toward_zero else u0 * iv.exp(tv())
        cos_t = (1 - u * u) / (1 + u * u)
        sin_t = 2 * u / (1 + u * u)
        return civ + riv * cos_t, riv * sin_t

    return (CertifiedReal(refine=lambda dps: coords()[0]),
            CertifiedReal(refine=lambda dps: coords()[1]))


class TestRayWalk:
    def test_sample_equals_reference_walk(self, monkeypatch):
        # the thick benchmark's settings: word radius 1 toward PHI and
        # SQRT2; every ray walked point by point as before, each point
        # located by the exact loop alone, finds the same orbit points at
        # each of the 4 x 2 x 25 ray points
        params = ThickParams(Theta=Fraction(5437, 1000), rho=Fraction(2),
                             beta=Fraction(3), t_max=Fraction(12))

        def found():
            calls = []

            def near(*args):
                calls.append(orbit_points_near(*args))
                return calls[-1]

            with monkeypatch.context() as mp:
                mp.setattr(flow_cover, "orbit_points_near", near)
                sample_coarse_flow(params, 1, [PHI, SQRT2])
            return calls

        got = found()
        monkeypatch.setattr(flow_cover, "geodesic_point",
                            reference_geodesic_point)
        monkeypatch.setattr(flow_cover, "locate", reference_locate)
        want = found()
        assert len(got) == 4 * 2 * 25 and got == want
        assert sum(map(len, got)) > 8 * 25

    @pytest.mark.parametrize("xi", [PHI, -SQRT2, INFINITY, Fraction(0),
                                    Fraction(5, 2)])
    def test_points_equal_reference(self, xi):
        for g in word_ball(2):
            for t in (Fraction(0), Fraction(1, 2), Fraction(7)):
                got = geodesic_point(g, xi, t)
                want = reference_geodesic_point(g, xi, t)
                assert [c.interval(40) for c in got] == \
                    [c.interval(40) for c in want]


class TestCharts:
    def test_charts_accepted(self, sample, params):
        charts, rejected = build_charts(sample)
        assert len(charts) >= 4
        assert rejected == []

    def test_charts_equal_per_triple_reference(self, walk, params):
        sample, lists = walk
        charts, _ = build_charts(sample)
        want = charts_per_triple(
            [(xi, v) for xi, vs in lists for v in vs],
            float(params.rho) + 1.0)
        assert list(charts) == list(want)
        for key, chart in charts.items():
            assert list(chart.members.items()) == \
                list(want[key].members.items())

    def test_sample_counts_every_triple(self, walk, monkeypatch):
        sample, lists = walk
        assert sample.size == sum(len(vs) for _, vs in lists)
        made = []
        init = FlowLineChart.__post_init__

        def counted(chart):
            made.append(chart.xi_plus)
            init(chart)

        monkeypatch.setattr(FlowLineChart, "__post_init__", counted)
        build_charts(sample)
        assert made == list(sample.points)

    def test_embedding_audit(self, sample):
        charts, _ = build_charts(sample)
        for chart in charts.values():
            mu, A = chart.audit_embedding()
            assert mu <= 2.0
            assert A <= 2 * 3.0 + 1

    def test_cover_order_and_longness(self, cover):
        assert cover.order_measured <= 2
        assert cover.longness_ok
        assert not cover.rejected_charts

    def test_fsubset(self, cover):
        assert fsubset_check(cover) == 0

    def test_elements_containing_equals_scan(self, cover):
        # the per-chart index gives what a scan of every element gives, in
        # the same order: at every member, at each element's ends, and at
        # a key without a chart
        probes = [(key, t) for key, chart in cover.charts.items()
                  for t in chart.members.values()]
        probes += [(U.chart_key, t) for U in cover.elements
                   for t in (U.lo, U.hi)]
        probes.append(("no chart", Fraction(0)))
        for key, t in probes:
            assert cover.elements_containing(key, t) == \
                [U for U in cover.elements
                 if U.chart_key == key and U.lo <= t < U.hi]


class TestPullback:
    def test_tau_found(self, sample, cover, params):
        pairs = [(g, PHI) for g in word_ball(1)]
        rep = choose_tau([IDENTITY, GEN_T], params, pairs, cover,
                         Fraction(16))
        assert rep["status"] == "ok"
        assert Fraction(rep["tau_chosen"]) <= 4

    def test_pullback_membership(self, sample, cover, params):
        xi = PHI
        pts = flow_point(IDENTITY, xi, Fraction(3), params)
        assert pts
        hits = flow_elements(IDENTITY, xi, Fraction(3), cover, params)
        assert 1 <= len(hits) <= 2

    def test_theorem_small_scale(self, params):
        rep = verify_thick_theorem(
            [IDENTITY, GEN_T, GEN_T.inverse(), GEN_S],
            params, 3, [PHI, SQRT2], pinned_order=2)
        assert rep["tau"]["status"] == "ok"
        assert rep["longness_ok"]
        assert rep["fsubset_failures"] == 0
        assert rep["order_within_pin"]
        assert rep["extension_restricts"] is True
        assert rep["order_extended"] >= 1

    def test_theorem_without_tau(self, params):
        # a budget below beta tries no tau: the pulled-back keys stay None
        # and the pin is checked on the sample cover alone
        rep = verify_thick_theorem([IDENTITY, GEN_T], params, 1, [PHI],
                                   pinned_order=2, tau_max=Fraction(1))
        assert rep["tau"] == {"tau_chosen": None, "attempts": [],
                              "status": "not-found-within-budget"}
        assert rep["order_extended"] is None
        assert rep["extension_restricts"] is None
        assert rep["order_within_pin"] == (rep["order_measured"] <= 2)
