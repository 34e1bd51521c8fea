"""Thin cover: the ladder, the selection walk (chain vs window-graph
oracle), certified membership, and the theorem check at small scale."""

import random
from fractions import Fraction

import pytest

from horocover.hyperbolic import (
    GEN_S,
    GEN_T,
    IDENTITY,
    GroupElement,
    Horoball,
    word_ball,
)
from horocover.projection_complex import ProjComplexGraph, build_window
from horocover.surd import PHI, SQRT2
from horocover.thin_cover import (
    BASE_INDEX,
    FinitePart,
    LadderAuditError,
    ThetaLadder,
    find_long_member,
    is_theta5_thin,
    membership_U,
    select_Yi,
    select_Z,
    theta_S,
    verify_thin_theorem,
)

THETA_P = Fraction(6)


@pytest.fixture(scope="module")
def ladder():
    S = FinitePart.word_ball(3)
    return ThetaLadder(Fraction(2), theta_S(S, THETA_P), THETA_P)


@pytest.fixture(scope="module")
def S3():
    return FinitePart.word_ball(3)


class TestLadder:
    def test_pinned_theta_s(self):
        assert theta_S(FinitePart.word_ball(1), THETA_P) == 7
        assert theta_S(FinitePart.word_ball(3), THETA_P) == 10

    def test_ladder_values(self, ladder):
        assert [ladder.Theta(i) for i in range(6)] == \
            [120, 240, 360, 480, 600, 720]

    def test_audit_rejects_degenerate(self):
        with pytest.raises(LadderAuditError):
            ThetaLadder(Fraction(0), Fraction(1), Fraction(1))

    def test_index_range(self, ladder):
        with pytest.raises(ValueError):
            ladder.Theta(6)


class TestSelection:
    def test_select_z_rational_is_tangency(self, ladder):
        Z = select_Z(IDENTITY, Fraction(3, 7), ladder)
        assert Z == Horoball(3, 7)

    def test_select_z_equivariant(self, ladder):
        xi = Fraction(5, 12)
        base = select_Z(IDENTITY, xi, ladder)
        for g in (GEN_T, GEN_S):
            assert select_Z(g, g.apply_boundary(xi), ladder) == \
                base.translate(g)

    def test_select_yi_deep_approximant(self, ladder):
        # xi = 1/500: the 0-ball projection d = 500 >= Theta_2 = 360
        xi = Fraction(1, 500)
        assert select_Yi(IDENTITY, xi, 1, ladder) == Horoball(0, 1)
        assert select_Yi(IDENTITY, xi, 2, ladder) == Horoball(0, 1)

    def test_select_yi_falls_to_tangency(self, ladder):
        # no Theta_1-large projection on the way to 1/2
        assert select_Yi(IDENTITY, Fraction(1, 2), 1, ladder) == \
            Horoball(1, 2)

    def test_basepoint_preemption(self, ladder):
        # |w| = 300 >= Theta_1: the basepoint index is crossed first
        xi = Fraction(300)
        assert select_Yi(IDENTITY, xi, 1, ladder) == BASE_INDEX
        # and at Theta_2 = 360 the walk passes it by
        assert select_Yi(IDENTITY, xi, 2, ladder) == Horoball(300, 1)

    def test_select_yi_equivariant(self, ladder):
        xi = Fraction(1, 500)
        for g in word_ball(2):
            assert select_Yi(g, g.apply_boundary(xi), 1, ladder) == \
                select_Yi(IDENTITY, xi, 1, ladder).translate(g)

    def test_chain_agrees_with_graph_oracle(self, ladder):
        # window anchored at the target so the oracle graph contains the walk
        for q in (401, 487):
            xi = Fraction(1, q)
            window = build_window((Horoball(1, 0), Horoball(1, q)),
                                  Fraction(4), Fraction(2))
            graph = ProjComplexGraph(window)
            chain_pick = select_Yi(IDENTITY, xi, 1, ladder)
            graph_pick = select_Yi(IDENTITY, xi, 1, ladder, graph=graph)
            assert chain_pick == graph_pick == Horoball(0, 1)


class TestMembership:
    def test_yes_with_margin(self, ladder):
        m = membership_U(Horoball(0, 1), 1, IDENTITY, Fraction(1, 500),
                         ladder)
        assert m.verdict == "yes"
        assert m.delta > 0

    def test_no_for_competitor(self, ladder):
        m = membership_U(Horoball(1, 1), 1, IDENTITY, Fraction(1, 500),
                         ladder)
        assert m.verdict == "no"

    def test_equivariant_verdicts(self, ladder):
        xi = Fraction(1, 500)
        Y = Horoball(0, 1)
        base = membership_U(Y, 1, IDENTITY, xi, ladder)
        for g in (GEN_T, GEN_S * GEN_T):
            moved = membership_U(Y.translate(g), 1, g,
                                 g.apply_boundary(xi), ladder)
            assert moved.verdict == base.verdict

    def test_surd_membership(self, ladder):
        # phi is Theta_4-thick: certified complement everywhere
        m = membership_U(Horoball(1, 1), 1, IDENTITY, PHI, ladder)
        assert m.verdict in ("no", "boundary-uncertain")

    def test_surd_membership_without_window(self, ladder):
        # xi = 1/(2000 + 1/phi): the 0-ball carries the only projection
        # above Theta_4/2, 2000.6, and the exact kernel completes the
        # competitor list without a denominator window
        xi = GroupElement(1, 0, 2000, 1).apply_boundary(PHI)
        m = membership_U(Horoball(0, 1), 1, IDENTITY, xi, ladder)
        assert m.verdict == "yes"
        assert m.delta == Fraction(1, 2048)

    def test_family_index_validated(self, ladder):
        with pytest.raises(ValueError):
            membership_U(Horoball(0, 1), 3, IDENTITY, Fraction(1, 500),
                         ladder)


class TestTheorem:
    def test_thinness_classifier(self, ladder):
        assert is_theta5_thin(IDENTITY, Fraction(1, 500), ladder)
        assert not is_theta5_thin(IDENTITY, PHI, ladder)
        assert not is_theta5_thin(IDENTITY, SQRT2, ladder)

    def test_long_member_on_anchor_collision(self, ladder, S3):
        # the base ball of g*s coincides with the deep chain vertex: the
        # basepoint preemption must still produce a common element
        got = find_long_member(GEN_S, Fraction(13, 7634), S3, ladder)
        assert got is not None
        Y, i, delta = got
        assert Y == Horoball(0, 1) and delta > 0

    def test_small_sample_green(self, ladder, S3):
        rng = random.Random(23)
        samples = []
        while len(samples) < 40:
            q = rng.randint(1, 5000)
            p = rng.randint(-2 * q, 2 * q)
            g = rng.choice(word_ball(2))
            samples.append((g, Fraction(p, q)))
        rep = verify_thin_theorem(S3, ladder, samples)
        assert rep.pairs_tested > 0
        assert rep.long_failures == 0
        assert rep.disjointness_failures == 0
