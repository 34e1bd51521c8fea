"""Thick cover: classification, the flood fill of orbit points near a ray
against an enumeration of every orbit point in its bounding boxes, its
exact fallback and equivariance, ray points against the per-point
construction, flow-line charts against their per-triple construction and
against mpmath foot times and line distances, with their exact branches
and their proved embedding bound, the staggered interval cover, and
pullback longness with each iota_tau ball filled once."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from horocover import cli, flow_cover, hyperbolic
from horocover.certified import (
    INFINITE,
    CertifiedReal,
    fraction_to_iv,
    iv_acos,
    surd_iv,
)
from horocover.flow_cover import (
    FlowLineChart,
    ThickCertificate,
    ThickParams,
    _MID_GAP,
    _Ray,
    _exp_bounds,
    _exp_sign,
    build_charts,
    build_long_thin_cover,
    choose_tau,
    classify,
    flow_elements,
    flow_point,
    fsubset_check,
    orbit_points_near,
    sample_coarse_flow,
    tube_points,
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
    locate,
    word_ball,
)
from horocover.surd import INFINITY, PHI, SQRT2, Surd
from reference import (
    chart_reference,
    charts_per_triple,
    line_position,
    surd_sample_set,
    tau_reference,
    tube_reference,
)

ROOT = Path(__file__).resolve().parents[1]

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
    """The sample at word radius 3, and each tube_points result of its
    walk as a pair (forward endpoint, list), in call order."""
    rays = []

    def tube(g, xi, params):
        rays.append((xi, tube_points(g, xi, params)))
        return rays[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_cover, "tube_points", tube)
        sample = sample_coarse_flow(params, 3, [
            PHI, SQRT2, GEN_T.apply_boundary(PHI),
            GEN_S.apply_boundary(SQRT2)])
    return sample, rays


@pytest.fixture(scope="module")
def sample(walk):
    return walk[0]


@pytest.fixture(scope="module")
def cover(sample, params):
    return build_long_thin_cover(sample, params.beta)


def _thick_workload():
    """The perfbench thick workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.Thick()


def embedding_defect(members: dict) -> float:
    """The least A_hat with dt <= 2 d + A_hat and d <= 2 dt + A_hat over the
    pairs of members (a, n) -> t, for d the distance of (a + i) / n and
    (b + i) / m, from cosh d = 1 + ((a m - b n)^2 + (n - m)^2) / (2 n m), and
    dt = |t - t'|; 0 for fewer than two members."""
    pts = [(a, n, float(t)) for (a, n), t in members.items()]
    A_hat = 0.0
    for k, (a, n, t) in enumerate(pts):
        for b, m, u in pts[k + 1:]:
            d = math.acosh(1 + ((a * m - b * n) ** 2 + (n - m) ** 2)
                           / (2 * n * m))
            dt = abs(t - u)
            A_hat = max(A_hat, dt - 2 * d, d - 2 * dt)
    return A_hat


def _thick_only(xis, Theta) -> list:
    return [xi for xi in xis if isinstance(classify(IDENTITY, xi, Theta),
                                           ThickCertificate)]


@pytest.fixture(scope="module")
def bench():
    """The perfbench thick workload at seed 7: its word radius, parameters
    and thick directions."""
    workload = _thick_workload()
    inputs = workload.setup(7)
    params = inputs["params"]
    return workload.RADIUS, params, _thick_only(inputs["xis"], params.Theta)


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

    def test_params_rejected(self):
        # a ray segment needs t_max >= 0
        with pytest.raises(ValueError):
            ThickParams(Fraction(6), RHO, Fraction(3), Fraction(-1))


RHO = Fraction(2)
WORDS = st.lists(st.sampled_from([GEN_S, GEN_T, GEN_T.inverse()]),
                 max_size=6).map(lambda w: math.prod(w, start=IDENTITY))
# ray times, without the tie t = RHO of a ray's start with its time-t point
TIMES = [Fraction(k, 2) for k in range(25) if k != 4]


def _move(h: GroupElement, keys) -> set:
    """h applied to the orbit points of keys (a, n), as keys."""
    out = set()
    for a, n in keys:
        x, y = h.apply_point(Fraction(a, n), Fraction(1, n))
        out.add((x / y, 1 / y))
    return out


def _no_intervals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("point enclosure or located point used")

    monkeypatch.setattr(CertifiedReal, "compare", refuse)
    monkeypatch.setattr(CertifiedReal, "interval", refuse)


def _count_exact(monkeypatch, method: str = "_within") -> list:
    """The arguments of each call to the exact test `_Ray.<method>`."""
    calls = []
    exact = getattr(_Ray, method)

    def counted(self, *args):
        calls.append(args)
        return exact(self, *args)

    monkeypatch.setattr(_Ray, method, counted)
    return calls


def _start_kept(g, t) -> bool:
    start = (g.a * g.c + g.b * g.d, g.c * g.c + g.d * g.d)
    return start in orbit_points_near(g, SQRT2, t, RHO)


class TestOrbitPointsNear:
    @settings(max_examples=40, deadline=None)
    @given(st.fractions(-30, 30, max_denominator=16),
           st.sampled_from([8, 64, 130]))
    def test_exp_bounds_enclose(self, r, bits):
        lo, hi = _exp_bounds(r, bits)
        with mpmath.workdps(80):
            v = mpmath.exp(mpmath.mpf(r.numerator) / r.denominator) \
                * mpmath.mpf(2) ** bits
            assert lo <= v <= hi
            assert hi - lo <= v * mpmath.mpf(2) ** (4 - bits) + 2

    def test_exp_sign(self):
        # terms of one exponent merge, so an exact cancellation is 0
        one = Fraction(1)
        assert _exp_sign([(0, (3, 0)), (one, (2, 0)), (one, (-2, 0)),
                          (0, (-3, 0))], 0) == 0
        assert _exp_sign([(one, (1000, 0)), (0, (-2718, 0))], 0) == 1
        assert _exp_sign([(one, (1000, 0)), (0, (-2719, 0))], 0) == -1
        # 2 e^(1/2) - (1 + sqrt 5) = 3.297... - 3.236... in Z[sqrt 5]
        assert _exp_sign([(Fraction(1, 2), (2, 0)), (0, (-1, -1))], 5) == 1
        # e^-20 is tiny but positive
        assert _exp_sign([(Fraction(-20), (1, 0))], 0) == 1

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(word_ball(3)), WORDS,
           st.sampled_from([PHI, SQRT2]), st.sampled_from(TIMES))
    def test_equals_reference_on_rays(self, g, w, xi, t):
        xi = w.apply_boundary(xi)
        got = orbit_points_near(g, xi, t, RHO)
        assert len(got) == len(set(got))
        assert set(got) == tube_reference(g, xi, t, t, RHO)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(word_ball(3)),
           st.sampled_from([PHI, -SQRT2, INFINITY, Fraction(0),
                            Fraction(5, 2)]),
           st.sampled_from([Fraction(1, 2), Fraction(1), RHO]))
    def test_equals_reference_on_rational_points(self, g, xi, rho):
        # at time 0 the ray point is the rational orbit point g x0
        assert set(orbit_points_near(g, xi, 0, rho)) == \
            tube_reference(g, xi, 0, 0, rho)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(word_ball(2)), WORDS,
           st.sampled_from([PHI, SQRT2, Fraction(1, 3)]))
    def test_filter_sound_on_a_wide_box(self, g, w, xi):
        # every orbit point within rho + 1 of a segment, a box wider than
        # the reference's, is decided by the exact test alone, and by the
        # float filter wherever it decides, as the reference decides it
        xi, t1 = w.apply_boundary(xi), Fraction(4)
        ray = _Ray(g, xi)
        want = tube_reference(g, xi, 0, t1, RHO)
        cands = set(ray.fill(Fraction(0), t1, RHO + 1, (g.a, g.b, g.c, g.d),
                             _MID_GAP + 3.5))
        assert want <= cands
        keep_at = math.cosh(RHO)
        for a, n in cands:
            inside = (a, n) in want
            assert ray._within(a, n, Fraction(0), t1, RHO) == inside
            X, perm = ray._cosh_distance(a, n, 0.0, float(t1))
            if abs(X - keep_at) > flow_cover._BAND * X * (1 + perm):
                assert (X < keep_at) == inside

    @pytest.mark.parametrize("exact", [True, False])
    def test_start_near_rho_decided_without_compare(self, monkeypatch,
                                                    exact):
        # 2^-40 off the tie only the exact test separates the start; 2^-20
        # off, the floats do
        _no_intervals(monkeypatch)
        calls = _count_exact(monkeypatch)
        eps = Fraction(1, 2 ** (40 if exact else 20))
        g = GroupElement(0, -1, 1, 2)
        assert _start_kept(g, RHO - eps)
        assert not _start_kept(g, RHO + eps)
        assert bool(calls) == exact

    def test_tie_kept_without_compare(self, monkeypatch):
        # at t = rho the start is at distance exactly rho: the exponential
        # sum has equal exponents, which merge to an exact 0
        _no_intervals(monkeypatch)
        calls = _count_exact(monkeypatch)
        assert _start_kept(GroupElement(0, -1, 1, 2), RHO)
        assert calls

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(word_ball(2)), WORDS, WORDS,
           st.sampled_from([PHI, SQRT2, -SQRT2, Fraction(1, 3), INFINITY]),
           st.sampled_from([Fraction(0), Fraction(3, 2), Fraction(5)]))
    def test_equivariant(self, g, w, h, xi, t):
        # moving the ray by h moves its tube and its time-t ball by h
        xi = w.apply_boundary(xi)
        short = ThickParams(Fraction(6), RHO, Fraction(3), Fraction(4))
        moved_xi = h.apply_boundary(xi)
        assert set(tube_points(h * g, moved_xi, short)) == \
            _move(h, tube_points(g, xi, short))
        assert set(orbit_points_near(h * g, moved_xi, t, RHO)) == \
            _move(h, orbit_points_near(g, xi, t, RHO))


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
    def test_sample_equals_reference_tubes(self, bench):
        # the thick benchmark at seed 7: every ray's tube is the set of
        # orbit points within rho that the bounding-box enumeration finds
        radius, params, thick = bench
        total = 0
        for g in word_ball(radius):
            for xi in thick:
                got = tube_points(g, xi, params)
                assert len(got) == len(set(got))
                assert set(got) == tube_reference(g, xi, 0, params.t_max,
                                                  params.rho)
                total += len(got)
        assert total == sample_coarse_flow(params, radius, thick).size

    def test_sample_without_point_enclosures(self, bench, monkeypatch):
        # the sample needs no located point, ray point or interval
        radius, params, xis = bench
        want = sample_coarse_flow(params, radius, xis)

        def refuse(*args, **kwargs):
            raise AssertionError("point enclosure or located point used")

        for module in (flow_cover, hyperbolic):
            monkeypatch.setattr(module, "locate", refuse, raising=False)
            monkeypatch.setattr(module, "geodesic_point", refuse,
                                raising=False)
        monkeypatch.setattr(CertifiedReal, "interval", refuse)
        got = sample_coarse_flow(params, radius, xis)
        assert got.size == want.size
        assert {k: list(v) for k, v in got.points.items()} == \
            {k: list(v) for k, v in want.points.items()}

    @pytest.mark.parametrize("xi", [PHI, SQRT2, GEN_T.apply_boundary(PHI),
                                    GroupElement(1, 0, 7, 1).apply_boundary(
                                        PHI)])
    def test_depth_bound_holds(self, xi):
        # the depth of each ray point, measured where locate puts it in
        # the fundamental domain (only the horoball at infinity meets it),
        # stays below the bound; on the thick rays the bound is below rho,
        # so the fill's margin is 2 asinh(1/2)
        thick = isinstance(classify(IDENTITY, xi, Fraction(5437, 1000)),
                           ThickCertificate)
        for g in word_ball(1):
            bound = _Ray(g, xi).depth_bound(Fraction(12))
            for k in range(49):
                x, y = (float(c) for c in geodesic_point(g, xi,
                                                          Fraction(k, 4)))
                z = (Fraction(x), Fraction(y))
                depth = math.log(max(1.0, float(
                    locate(z).inverse().apply_point(*z)[1])))
                assert depth <= bound + 1e-9
            assert bound < RHO or not thick

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
    def test_charts_built(self, sample):
        assert len(build_charts(sample)) >= 4

    def test_charts_equal_per_triple_reference(self, walk, params):
        sample, lists = walk
        charts = build_charts(sample)
        want = charts_per_triple(
            [(xi, v) for xi, vs in lists for v in vs], params.rho + 1)
        assert list(charts) == list(want)
        for key, chart in charts.items():
            assert list(chart.members.items()) == \
                list(want[key].members.items())

    def test_charts_equal_mpmath_reference(self, bench):
        # the thick benchmark at seed 7: each chart admits the orbit points,
        # and at the quarters, that the foot times and line distances of
        # mpmath give
        radius, params, thick = bench
        sample = sample_coarse_flow(params, radius, thick)
        charts = build_charts(sample)
        for xi, vs in sample.points.items():
            assert list(charts[str(xi)].members.items()) == \
                list(chart_reference(xi, vs, params.rho + 1).items())

    @settings(max_examples=15, deadline=None)
    @given(WORDS, st.sampled_from([PHI, SQRT2, -SQRT2, INFINITY]),
           st.sampled_from([Fraction(k, 2) for k in range(-4, 17)]))
    def test_chart_equals_mpmath_reference_near_rays(self, w, xi, t):
        # the orbit points within line_R + 1 of a point of the line toward
        # w xi, offered to its chart, inside and outside line_R
        xi, line_R = w.apply_boundary(xi), Fraction(3)
        keys = orbit_points_near(IDENTITY, xi, t, line_R + 1)
        chart = FlowLineChart(xi, line_R)
        for v in keys:
            chart.add(v)
        assert list(chart.members.items()) == \
            list(chart_reference(xi, keys, line_R).items())

    def test_exact_branches_agree(self, sample, monkeypatch):
        # with the float band widened past every value, each admission and
        # each quarter snap is decided exactly, to the same members; the
        # sample at word radius 3 has points outside line_R
        want = build_charts(sample)
        monkeypatch.setattr(flow_cover, "_BAND", 2.0 ** 60)
        lines = _count_exact(monkeypatch, "_near_line")
        snaps = _count_exact(monkeypatch, "_foot_sign")
        got = build_charts(sample)
        assert len(lines) == sum(len(vs) for vs in sample.points.values())
        assert len(snaps) == sum(len(c.members) for c in got.values())
        assert {k: list(c.members.items()) for k, c in got.items()} == \
            {k: list(c.members.items()) for k, c in want.items()}

    @pytest.mark.parametrize("inside", [True, False])
    def test_admission_off_a_tie_is_exact(self, monkeypatch, inside):
        # (7 + i)/3 lies 1.81 from the line toward PHI, with foot time 1.81;
        # with line_R 10^-20 off that distance only the exact test
        # separates it
        calls = _count_exact(monkeypatch, "_near_line")
        with mpmath.workdps(60):
            _, dist = line_position(PHI, (7, 3))
            R = Fraction(int(mpmath.floor(dist * 10 ** 20)) + inside,
                         10 ** 20)
        chart = FlowLineChart(PHI, R)
        chart.add((7, 3))
        assert chart.members == ({(7, 3): Fraction(7, 4)} if inside else {})
        assert len(calls) == 1

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

    @pytest.mark.parametrize("rho,largest", [
        (Fraction(1, 2), 1.93), (Fraction(2), 5.78), (Fraction(3), 7.92)],
        ids=["rho-0.5", "rho-2", "rho-3"])
    def test_embedding_bound(self, rho, largest):
        # the proved (2, 2 line_R + 1/4) embedding of FlowLineChart, measured
        # over every member pair of the charts of the word-radius-3 sample
        # toward the 22 default thick endpoints; the largest A_hat, known to
        # two decimals, lies within 0.34 of the bound at rho = 3
        params = ThickParams(Theta=Fraction(5437, 1000), rho=rho,
                             beta=Fraction(3), t_max=Fraction(8))
        xis = _thick_only(cli._thick_xis(cli.DEFAULT_CONFIG), params.Theta)
        charts = build_charts(sample_coarse_flow(params, 3, xis))
        A_hat = max(embedding_defect(chart.members)
                    for chart in charts.values())
        assert A_hat == pytest.approx(largest, abs=0.01)
        assert A_hat <= 2 * float(rho + 1) + 0.25

    def test_cover_order_and_longness(self, cover):
        assert cover.order_measured <= 2
        assert cover.longness_ok

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

    def test_pullback_off_the_chart(self, cover, params):
        # a flow point of T^10 x0 toward PHI at time 3 lies outside the
        # chart of PHI, and 1 + sqrt(3) has no chart: neither pair pulls
        # back an element
        far, tau = GroupElement(1, 10, 0, 1), Fraction(3)
        members = cover.charts[str(PHI)].members
        assert not set(flow_point(far, PHI, tau, params)) <= set(members)
        assert flow_elements(far, PHI, tau, cover, params) == set()
        assert flow_elements(IDENTITY, Surd(1, 1, 3), tau, cover,
                             params) == set()

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

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_each_ball_filled_once(self, seed, monkeypatch):
        # the thick benchmark fills each iota_tau ball once, 30 in all, and
        # reports what filling it anew for every pair and pass gives
        workload = _thick_workload()
        inputs = workload.setup(seed)
        fills = []
        fill = flow_cover.orbit_points_near

        def counted(*args):
            fills.append(args)
            return fill(*args)

        monkeypatch.setattr(flow_cover, "orbit_points_near", counted)
        rep = workload.verify(inputs)
        monkeypatch.undo()
        assert len(fills) == len(set(fills)) == 30
        params, S = inputs["params"], inputs["S"]
        thick = _thick_only(inputs["xis"], params.Theta)
        cover = build_long_thin_cover(
            sample_coarse_flow(params, workload.RADIUS, thick), params.beta)
        pairs = [(g, xi) for g in word_ball(max(1, workload.RADIUS - 2))
                 for xi in thick]
        assert (rep["tau"], rep["order_extended"]) == tau_reference(
            S, params, pairs, cover, workload.TAU_BUDGET)
