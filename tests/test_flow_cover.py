"""Thick cover: classification, flow-line charts, the staggered interval
cover, pullback longness, and the numeric flow-space properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from horocover.certified import INFINITE
from horocover.flow_cover import (
    ThickCertificate,
    ThickParams,
    ambient_metric,
    boundary_distance,
    build_charts,
    build_long_thin_cover,
    check_endpoint_convergence,
    check_fellow_traveling,
    check_line_proximity,
    choose_tau,
    classify,
    flow_point,
    fsubset_check,
    pullback,
    sample_coarse_flow,
    verify_thick_theorem,
    word_distance,
)
from horocover.hyperbolic import (
    GEN_S,
    GEN_T,
    IDENTITY,
    GroupElement,
    Horoball,
    word_ball,
)
from horocover.projection_data import surd_sample_set
from horocover.surd import PHI, SQRT2, Surd, boundary

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
def sample(params):
    xis = [boundary(PHI), boundary(SQRT2),
           boundary(GEN_T.apply_boundary(PHI)),
           boundary(GEN_S.apply_boundary(SQRT2))]
    return sample_coarse_flow(params, 3, xis)


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


class TestCharts:
    def test_charts_accepted(self, sample, params):
        charts, rejected = build_charts(sample)
        assert len(charts) >= 4
        assert rejected == []

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

    def test_fsubset(self, cover, sample):
        assert fsubset_check(cover, sample) == 0


class TestPullback:
    def test_tau_found(self, sample, cover, params):
        pairs = [(g, boundary(PHI)) for g in word_ball(1)]
        rep = choose_tau([IDENTITY, GEN_T], params, pairs, cover,
                         Fraction(16))
        assert rep["status"] == "ok"
        assert Fraction(rep["tau_chosen"]) <= 4

    def test_pullback_membership(self, sample, cover, params):
        xi = boundary(PHI)
        pts = flow_point(IDENTITY, xi, Fraction(3), params)
        assert pts
        hits = [U for U in cover.elements
                if pullback(U, Fraction(3), cover, params).contains(
                    IDENTITY, xi)]
        assert 1 <= len(hits) <= 2

    def test_theorem_small_scale(self, params):
        rep = verify_thick_theorem(
            [IDENTITY, GEN_T, GEN_T.inverse(), GEN_S],
            params, 3, [PHI, SQRT2], pinned_order=2)
        assert rep["tau"]["status"] == "ok"
        assert rep["longness_ok"]
        assert rep["fsubset_failures"] == 0
        assert rep["order_within_pin"]
        assert rep["extension_restricts"]


class TestMetrics:
    def test_word_distance(self):
        assert word_distance(IDENTITY, IDENTITY) == 0
        assert word_distance(IDENTITY, GEN_T) == 1
        assert word_distance(GEN_S, GEN_S * GEN_T * GEN_T) == 2

    @given(st.sampled_from(word_ball(3)),
           st.lists(st.sampled_from([GEN_S, GEN_T, GEN_T.inverse()]),
                    max_size=6).map(lambda w: math.prod(w, start=IDENTITY)))
    def test_word_distance_is_word_ball_radius(self, g, w):
        radius = next(r for r in range(7) if w in word_ball(r))
        assert word_distance(g, g * w) == radius

    def test_boundary_distance_symmetric(self):
        a, b = Fraction(1, 3), boundary(SQRT2)
        assert boundary_distance(a, b) == pytest.approx(
            boundary_distance(b, a))
        assert boundary_distance(a, a) == 0

    def test_ambient_metric_separates(self):
        x = (IDENTITY, Fraction(1, 3))
        y = (GEN_T, Fraction(1, 3))
        assert ambient_metric(x, x) == 0
        assert ambient_metric(x, y) >= 1


class TestFlowProperties:
    def test_f1_endpoint_convergence(self):
        for xi in (PHI, SQRT2):
            assert check_endpoint_convergence(xi)["ok"]

    def test_f2_fellow_traveling(self):
        # rays toward the same endpoint only get closer: the measured bound
        # is attained at the start
        rep = check_fellow_traveling(IDENTITY, GEN_T, PHI)
        assert rep["R_measured"] <= rep["start_distance"] + 1e-9

    def test_f3_line_proximity(self, sample):
        rep = check_line_proximity(sample, Fraction(-1), boundary(PHI))
        assert rep["members"] > 0
        assert rep["R_measured"] < 4.0
