"""Projection-complex windows: geodesic d^max against brute force, the
pinned local-estimate/attraction constants, the transfer identity, and
equivariance."""

from fractions import Fraction

import pytest

from horocover.hyperbolic import GEN_S, GEN_T, Horoball
from horocover.projection_complex import (
    ProjComplexGraph,
    build_window,
    check_angle_transfer,
    verify_attraction,
    verify_local_estimate,
)
from reference import angle_table_equivariant, audit_window, dmax_brute

# the three pinned exhaustive windows with their calibrated constants
PINS = [
    (("oo", (0, 1)), Fraction(1, 2), Fraction(5),
     Fraction(0), Fraction(6), 0),
    (("oo", (2, 5)), Fraction(1), Fraction(2),
     Fraction(2, 3), Fraction(4), 4),
    (("oo", (73, 665)), Fraction(4), Fraction(3),
     Fraction(17, 72), Fraction(1, 8), 0),
]


def _anchor(a):
    return Horoball(1, 0) if a == "oo" else Horoball(*a)


@pytest.fixture(scope="module", params=range(len(PINS)), ids=["W1", "W2", "W3"])
def pinned(request):
    anchors, theta, K, tpp, tp, fails = PINS[request.param]
    window = build_window(tuple(_anchor(a) for a in anchors), theta, K)
    return ProjComplexGraph(window), tpp, tp, fails


class TestWindows:
    def test_size_and_connectivity(self, pinned):
        graph, *_ = pinned
        assert 2 <= len(graph.vertices) <= 12
        assert graph.connected()

    def test_dmax_matches_brute_force(self, pinned):
        graph, *_ = pinned
        vs = graph.vertices
        for X in vs:
            for Z in vs:
                if X == Z or graph.distance(X, Z) is None:
                    continue
                for Y in vs:
                    if Y in (X, Z):
                        continue
                    assert graph.dmax(X, Z, Y) == dmax_brute(graph, X, Z, Y)

    def test_pinned_constants(self, pinned):
        graph, tpp, tp, _fails = pinned
        assert verify_local_estimate(graph) == tpp
        assert verify_attraction(graph) == tp

    def test_transfer_failures_match_pin(self, pinned):
        graph, _tpp, tp, fails = pinned
        _inst, got, _w = check_angle_transfer(graph, tp)
        assert got == fails

    def test_transfer_clean_at_global_constant(self, pinned):
        graph, *_ = pinned
        _inst, fails, _w = check_angle_transfer(graph, Fraction(6))
        assert fails == 0


class TestStructure:
    def test_window_audit(self):
        anchors, theta, K, *_ = PINS[0]
        window = build_window(tuple(_anchor(a) for a in anchors), theta, K)
        assert audit_window(window, theta)

    def test_equivariance(self, pinned):
        graph, *_ = pinned
        for g in (GEN_T, GEN_S, GEN_S * GEN_T):
            assert angle_table_equivariant(graph, g)
