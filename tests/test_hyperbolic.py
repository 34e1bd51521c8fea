"""Upper half-plane geometry: the group action, Ford horoballs, the exact
projection distance and its depth identity, fundamental-domain reduction
against the exact loop, and ray points against mpmath."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from horocover import hyperbolic
from horocover.hyperbolic import (
    GEN_S,
    GEN_T,
    HOROBALL_INF,
    IDENTITY,
    GroupElement,
    Horoball,
    chart_point,
    geodesic_point,
    locate,
    normalizer,
    orbit_point,
    proj_dist_frac,
    proj_dist_int,
    projection_distance,
    rational_pair,
    word_ball,
)
from horocover.certified import INFINITE
from horocover.surd import INFINITY, PHI, SQRT2, Surd
from reference import hyperbolic_distance, penetration_depth

frac = st.fractions(min_value=-5, max_value=5, max_denominator=40)


def small_elements(radius=3):
    return st.sampled_from(word_ball(radius))


# random words in S, T and T^-1, multiplied out
words = st.lists(st.sampled_from([GEN_S, GEN_T, GEN_T.inverse()]),
                 max_size=12).map(lambda w: math.prod(w, start=IDENTITY))
horoballs = st.one_of(
    st.just(HOROBALL_INF),
    st.builds(Horoball, st.integers(-60, 60), st.integers(1, 30)))


@st.composite
def kernel_cases(draw):
    """(Y, u, v) with Y at infinity or with negative p, and endpoints that
    are rationals, INFINITY, the tangency of Y, or equal."""
    Y = draw(horoballs)
    point = st.one_of(frac, st.just(INFINITY), st.just(Y.tangency))
    u = draw(point)
    return Y, u, draw(st.one_of(point, st.just(u)))


def reference_apply_boundary(g: GroupElement, x):
    """The boundary action in Surd arithmetic throughout, a rational point
    taken as a rational Surd, then put in the form of `chart_point`: an
    oracle for the integer path of `apply_boundary`."""
    if x is not INFINITY and not isinstance(x, Surd):
        x = Surd.from_fraction(x)
    a, b, c, d = g.a, g.b, g.c, g.d
    if x is INFINITY:
        y = INFINITY if c == 0 else Surd(a, 0, 0, c)
    else:
        den = x * c + d
        y = INFINITY if den.sign() == 0 else (x * a + b) / den
    return chart_point(y)


# INFINITY, Fractions, ints and irrational Surds with their translates
boundary_points = st.one_of(
    frac, st.integers(-20, 20), st.just(INFINITY),
    st.builds(reference_apply_boundary, words,
              st.sampled_from([PHI, SQRT2])))


def reference_proj_dist_frac(Y: Horoball, u, v):
    """proj_dist_frac as it was before the integer kernel, in Fraction
    arithmetic: u, v are Fractions or INFINITY; a Fraction or INFINITE."""
    p, q = Y.p, Y.q
    if u is INFINITY:
        fu = Fraction(q)
        if q == 0:
            return INFINITE
    else:
        if q != 0 and u * q == p:
            return INFINITE
        if q == 0:
            fu = Fraction(1)
        else:
            fu = abs(u * q - p)
    if v is INFINITY:
        fv = Fraction(q)
        if q == 0:
            return INFINITE
    else:
        if q != 0 and v * q == p:
            return INFINITE
        if q == 0:
            fv = Fraction(1)
        else:
            fv = abs(v * q - p)
    if u is INFINITY and v is INFINITY:
        return Fraction(0)
    if u is INFINITY or v is INFINITY:
        num = Fraction(1)
    else:
        num = abs(u - v)
        if num == 0:
            return Fraction(0)
    return num / (fu * fv)


class TestGroup:
    def test_generators_relations(self):
        assert GEN_S * GEN_S == GroupElement(-1, 0, 0, -1)
        st3 = GEN_S * GEN_T
        assert st3 * st3 * st3 == GroupElement(-1, 0, 0, -1)

    def test_sign_normalization(self):
        assert GroupElement(-1, 0, 0, -1) == IDENTITY

    @given(small_elements(), small_elements())
    def test_inverse(self, g, h):
        assert g * g.inverse() == IDENTITY
        assert (g * h).inverse() == h.inverse() * g.inverse()

    @given(small_elements(), frac)
    def test_boundary_action_is_action(self, g, x):
        gx = g.apply_boundary(x)
        assert g.inverse().apply_boundary(gx) == x

    def test_word_ball_shape(self):
        sizes = [len(word_ball(r)) for r in (0, 1, 2, 3)]
        assert sizes == [1, 4, 10, 20]
        ball = word_ball(2)
        assert IDENTITY in ball
        assert all(g.inverse() in ball for g in ball)


class TestHoroball:
    def test_construction_normalizes(self):
        assert Horoball(2, 4) == Horoball(1, 2)
        assert Horoball(-1, -2) == Horoball(1, 2)
        assert Horoball(5, 0) == Horoball(1, 0)
        assert Horoball(1, 0).tangency is INFINITY

    def test_translate_tangency_commutes(self):
        Y = Horoball(2, 5)
        for g in word_ball(2):
            assert Y.translate(g).tangency == g.apply_boundary(Y.tangency)

    def test_at_reduces(self):
        assert Horoball.at(Fraction(4, 6)) == Horoball(2, 3)

    @pytest.mark.parametrize("x,point", [
        (Horoball(1, 0), INFINITY),
        (Horoball(3, 7), Fraction(3, 7)),
        (-4, Fraction(-4)),
        (Fraction(6, 4), Fraction(3, 2)),
        (Surd(3, 0, 0, 9), Fraction(1, 3)),
        (PHI, PHI),
        (INFINITY, INFINITY),
    ], ids=["oo", "3-7", "int", "Fraction", "rational-Surd", "PHI",
            "INFINITY"])
    def test_chart_point(self, x, point):
        got = chart_point(x)
        assert got == point and type(got) is type(point)

    def test_normalizer_sends_tangency_to_infinity(self):
        for Y in (Horoball(0, 1), Horoball(3, 7), Horoball(-2, 5)):
            n = normalizer(Y)
            assert n.apply_boundary(Y.tangency) is INFINITY


class TestProjectionDistance:
    def test_frozen_values(self):
        assert proj_dist_frac(Horoball(0, 1), INFINITY, Fraction(1)) == 1
        assert proj_dist_frac(Horoball(1, 2), INFINITY,
                              Fraction(1)) == Fraction(1, 2)
        # d = |u - v| / (|qu-p| |qv-p|)
        assert proj_dist_frac(Horoball(1, 2), Fraction(0),
                              Fraction(1)) == 1

    def test_tangency_is_infinite(self):
        assert proj_dist_frac(Horoball(1, 2), Fraction(1, 2),
                              Fraction(0)) is INFINITE
        assert projection_distance(Horoball(1, 0), INFINITY,
                                   Fraction(3)) is INFINITE

    @given(frac, frac)
    def test_symmetry(self, u, v):
        Y = Horoball(1, 3)
        assert proj_dist_frac(Y, u, v) == proj_dist_frac(Y, v, u)

    @given(small_elements(), frac, frac)
    def test_equivariance(self, g, u, v):
        Y = Horoball(0, 1)
        d1 = proj_dist_frac(Y, u, v)
        d2 = proj_dist_frac(Y.translate(g), g.apply_boundary(u),
                            g.apply_boundary(v))
        assert d1 == d2

    def test_certified_matches_fraction_path(self):
        Y = Horoball(3, 7)
        d = projection_distance(Y, Fraction(1, 2), INFINITY)
        assert d.exact == proj_dist_frac(Y, Fraction(1, 2), INFINITY)


class TestKernel:
    @given(kernel_cases())
    def test_kernel_matches_fraction_reference(self, case):
        Y, u, v = case
        n, fu, fv = proj_dist_int(rational_pair(Y), rational_pair(u),
                                  rational_pair(v))
        want = reference_proj_dist_frac(Y, u, v)
        if want is INFINITE:
            assert fu == 0 or fv == 0
        else:
            assert fu != 0 and fv != 0 and Fraction(n, fu * fv) == want
        assert proj_dist_frac(Y, u, v) == want

    @given(words, kernel_cases())
    def test_kernel_invariant_under_words(self, g, case):
        # g preserves the determinants |u ^ v|, |Y ^ u| and |Y ^ v|, so the
        # terms themselves are invariant, and with them the value
        Y, u, v = case
        terms = proj_dist_int(rational_pair(Y), rational_pair(u),
                              rational_pair(v))

        def act(pair):
            a, b = pair
            return g.a * a + g.b * b, g.c * a + g.d * b

        assert proj_dist_int(act(rational_pair(Y)), act(rational_pair(u)),
                             act(rational_pair(v))) == terms
        assert proj_dist_frac(Y.translate(g), g.apply_boundary(u),
                              g.apply_boundary(v)) == proj_dist_frac(Y, u, v)

    def test_terms(self):
        # Y = 1/2, u = 0, v = 1: |0 - 1| / (|0 - 1| |2 - 1|)
        assert proj_dist_int((1, 2), (0, 1), (1, 1)) == (1, 1, 1)
        # at infinity the factors are the denominators: |1/3 - 1/2|
        assert proj_dist_int((1, 0), (1, 3), (1, 2)) == (1, 3, 2)
        # the tangency gives a zero factor
        assert proj_dist_int((1, 2), (1, 2), (0, 1))[1] == 0

    @given(words, boundary_points)
    def test_apply_boundary_matches_surd_reference(self, g, x):
        got = g.apply_boundary(x)
        want = reference_apply_boundary(g, x)
        assert got == want and type(got) is type(want)

    @given(words, boundary_points)
    def test_chart_image_is_chart_point_of_action(self, g, x):
        # the image of the action is already in the form of chart_point
        got = g.apply_boundary(x)
        assert got is INFINITY or isinstance(got, Fraction) or (
            isinstance(got, Surd) and not got.is_rational)
        assert chart_point(got) is got
        if x is INFINITY:
            assert got == (INFINITY if g.c == 0 else Fraction(g.a, g.c))

    @given(words)
    def test_chart_image_of_surd(self, g):
        # an irrational point stays an irrational Surd under the action
        for xi in (PHI, SQRT2):
            got = g.apply_boundary(xi)
            assert isinstance(got, Surd) and not got.is_rational
            assert got == reference_apply_boundary(g, xi)


class TestDepth:
    def test_depth_identity(self):
        Y = Horoball(0, 1)
        d = proj_dist_frac(Y, Fraction(-3), Fraction(3))
        got = penetration_depth(Y, Fraction(-3), Fraction(3))
        assert float(got) == pytest.approx(math.log(float(d) / 2), abs=1e-12)

    def test_depth_zero_at_two(self):
        # d = 2 is the tangent geodesic: depth exactly 0
        Y = Horoball(0, 1)
        assert proj_dist_frac(Y, Fraction(-1), Fraction(1)) == 2
        assert penetration_depth(Y, Fraction(-1),
                                 Fraction(1)).exact == 0


class TestModel:
    def test_orbit_point_identity(self):
        assert orbit_point(IDENTITY) == (Fraction(0), Fraction(1))

    def test_locate_reduces_to_fundamental_domain(self):
        z = (Fraction(7, 2), Fraction(1, 5))
        g = locate(z)
        x, y = g.inverse().apply_point(*z)
        assert Fraction(-1, 2) <= x <= Fraction(1, 2)
        assert x * x + y * y >= 1

    def test_geodesic_point_vertical(self):
        x, y = geodesic_point(IDENTITY, INFINITY, Fraction(1))
        assert float(x) == pytest.approx(0.0, abs=1e-12)
        assert float(y) == pytest.approx(math.e, abs=1e-12)

    def test_geodesic_point_rational_direction(self):
        # toward 0 the ray from i runs straight down; toward 1 it follows
        # the unit circle; an int and a rational Surd are the same point
        x, y = geodesic_point(IDENTITY, Fraction(0), Fraction(1))
        assert (float(x), float(y)) == pytest.approx((0.0, 1 / math.e))
        for xi in (Fraction(1), 1, Surd(2, 0, 0, 2)):
            x, y = (float(c) for c in geodesic_point(IDENTITY, xi,
                                                     Fraction(1)))
            assert x * x + y * y == pytest.approx(1.0, abs=1e-12)
            assert x == pytest.approx(math.tanh(1), abs=1e-12)

    def test_hyperbolic_distance_vertical(self):
        d = hyperbolic_distance((Fraction(0), Fraction(1)),
                                (Fraction(0), Fraction(2)))
        assert float(d) == pytest.approx(math.log(2), abs=1e-12)

    def test_distance_invariance(self):
        p1 = (Fraction(1, 3), Fraction(2))
        p2 = (Fraction(-1), Fraction(1, 2))
        base = float(hyperbolic_distance(p1, p2))
        for g in (GEN_T, GEN_S, GEN_S * GEN_T):
            moved = float(hyperbolic_distance(g.apply_point(*p1),
                                              g.apply_point(*p2)))
            assert moved == pytest.approx(base, abs=1e-9)


def reference_locate(z) -> GroupElement:
    """The exact reduction loop from z, without the float guide: the
    oracle for `locate`, whose path also decides at the orbit points of i."""
    x, y = Fraction(z[0]), Fraction(z[1])
    acc = IDENTITY
    for _ in range(10000):
        n = math.floor(x + Fraction(1, 2))
        if n != 0:
            x -= n
            acc = GroupElement(1, -n, 0, 1) * acc
        norm = x * x + y * y
        if norm < 1:
            x, y = -x / norm, y / norm
            acc = GEN_S.inverse() * acc
            continue
        if norm == 1 and x > 0:
            x = -x
            acc = GEN_S.inverse() * acc
        break
    return acc.inverse()


# dyadic points with denominators near 2^140, like the midpoints of the
# dps-40 enclosures that flow_cover locates
dyadic_points = st.builds(
    lambda a, b, e: (Fraction(a, 2 ** e), Fraction(b, 2 ** e)),
    st.integers(-2 ** 142, 2 ** 142), st.integers(1, 2 ** 142),
    st.integers(136, 144))
# deep points, y < 1e-8, where the float loop drifts from the exact one
deep_points = st.builds(
    lambda x, k: (x, Fraction(1, k)),
    st.one_of(frac, st.fractions(-3, 3, max_denominator=10 ** 12)),
    st.integers(10 ** 8 + 1, 10 ** 30))
# the boundary of the canonical domain, Re = +-1/2 and the arc |z| = 1,
# moved by random words
domain_boundary = st.one_of(
    st.tuples(st.sampled_from([Fraction(-1, 2), Fraction(1, 2)]),
              st.fractions(Fraction(1, 100), 20, max_denominator=100)),
    st.sampled_from([(Fraction(3, 5), Fraction(4, 5)),
                     (Fraction(-3, 5), Fraction(4, 5)),
                     (Fraction(5, 13), Fraction(12, 13)),
                     (Fraction(-8, 17), Fraction(15, 17))]))
moved_boundary = st.builds(lambda g, z: g.apply_point(*z), words,
                           domain_boundary)
orbit_points_of_i = st.builds(orbit_point, words)


class TestLocate:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(dyadic_points, deep_points, domain_boundary,
                     moved_boundary))
    def test_equals_exact_loop(self, z):
        assert locate(z) == reference_locate(z)

    @settings(max_examples=60, deadline=None)
    @given(orbit_points_of_i)
    def test_orbit_of_i_restarts_exactly(self, z):
        # g i reduces to i, fixed by S: the element depends on the path, so
        # locate reduces again from z, and agrees with the exact loop
        calls = []
        reduce = hyperbolic._reduce

        def spy(x, y):
            calls.append((x, y))
            return reduce(x, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hyperbolic, "_reduce", spy)
            assert locate(z) == reference_locate(z)
        assert len(calls) == 2 and calls[1] == z

    def test_off_the_orbit_one_exact_pass(self, monkeypatch):
        calls = []
        reduce = hyperbolic._reduce
        monkeypatch.setattr(hyperbolic, "_reduce",
                            lambda x, y: calls.append(1) or reduce(x, y))
        z = (Fraction(7, 2), Fraction(1, 5))
        assert locate(z) == reference_locate(z) and calls == [1]


def _mp_geodesic_point(g: GroupElement, xi, t: Fraction):
    """The ray's time-t point in mpmath at dps 80, by another route: the
    isometry z -> -1/(z - xi) sends xi to infinity and the ray to a
    vertical one, along which Im grows as e^t."""
    with mpmath.workdps(80):
        x0, y0 = orbit_point(g)
        tv = mpmath.mpf(t.numerator) / t.denominator
        z0 = mpmath.mpc(mpmath.mpf(x0.numerator) / x0.denominator,
                        mpmath.mpf(y0.numerator) / y0.denominator)
        if xi is INFINITY:
            z = mpmath.mpc(z0.real, z0.imag * mpmath.exp(tv))
        else:
            if isinstance(xi, Fraction):
                xv = mpmath.mpf(xi.numerator) / xi.denominator
            else:
                xv = (xi.p + xi.q * mpmath.sqrt(xi.d)) / mpmath.mpf(xi.r)
            w0 = -1 / (z0 - xv)
            z = xv - 1 / mpmath.mpc(w0.real, w0.imag * mpmath.exp(tv))
        return Fraction(str(z.real)), Fraction(str(z.imag))


rays = st.tuples(
    st.sampled_from(word_ball(3)),
    st.one_of(st.sampled_from([PHI, SQRT2, INFINITY, Fraction(0),
                               Fraction(1, 3)]),
              st.builds(lambda g, w: g.apply_boundary(w), words,
                        st.sampled_from([PHI, SQRT2]))))
times = st.fractions(0, 12, max_denominator=4)


class TestGeodesicPoint:
    @settings(max_examples=60, deadline=None)
    @given(rays, times)
    def test_encloses_the_dps80_value(self, ray, t):
        g, xi = ray
        tol = Fraction(1, 10 ** 70)
        for c, v in zip(geodesic_point(g, xi, t), _mp_geodesic_point(g, xi, t)):
            lo, hi = c.interval(40)
            assert lo - tol * (1 + abs(v)) <= v <= hi + tol * (1 + abs(v))
            assert hi - lo < Fraction(1, 10 ** 30) * (1 + abs(v))

    @settings(max_examples=30, deadline=None)
    @given(rays, times)
    def test_precisions_do_not_mix(self, ray, t):
        # a point keeps its ray's enclosures per precision: a dps-80
        # interval taken after a dps-40 one is as narrow as dps 80 gives,
        # and a dps-40 interval taken after it equals the first
        g, xi = ray
        point = geodesic_point(g, xi, t)
        first = [c.interval(40) for c in point]
        for lo, hi in (c.interval(80) for c in point):
            assert hi - lo < Fraction(1, 10 ** 70) * (1 + abs(lo))
        assert [c.interval(40) for c in point] == first
