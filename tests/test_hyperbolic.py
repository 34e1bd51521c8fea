"""Upper half-plane geometry: the group action, Ford horoballs, the exact
projection distance and its depth identity, and fundamental-domain
reduction."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from horocover.hyperbolic import (
    GEN_S,
    GEN_T,
    IDENTITY,
    GroupElement,
    Horoball,
    chart_point,
    geodesic_point,
    hyperbolic_distance,
    locate,
    normalizer,
    orbit_point,
    penetration_depth,
    proj_dist_frac,
    projection_distance,
    word_ball,
)
from horocover.certified import INFINITE
from horocover.surd import INFINITY, PHI, SQRT2, Surd

frac = st.fractions(min_value=-5, max_value=5, max_denominator=40)


def small_elements(radius=3):
    return st.sampled_from(word_ball(radius))


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

    def test_surd_endpoints(self):
        d = projection_distance(Horoball(1, 1), SQRT2, INFINITY)
        # 1 / |sqrt2 - 1| = sqrt2 + 1
        assert float(d) == pytest.approx(math.sqrt(2) + 1, abs=1e-12)


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
