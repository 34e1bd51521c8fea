"""Thin cover: the ladder, the selection walk (chain vs window-graph
reference), certified membership, and the theorem check at small scale."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from horocover import cli, projection_data, thin_cover
from horocover.certified import INFINITE
from horocover.hyperbolic import (
    GEN_S,
    GEN_T,
    IDENTITY,
    GroupElement,
    Horoball,
    proj_dist_frac,
    word_ball,
)
from horocover.projection_complex import ProjComplexGraph, build_window
from horocover.projection_data import WindowRequiredError, rational_hits
from horocover.surd import INFINITY, PHI, SQRT2, Surd
from horocover.thin_cover import (
    BASE_INDEX,
    FinitePart,
    LadderAuditError,
    ThetaLadder,
    _base_walk,
    _centre,
    _certify_yes,
    _exceeds,
    _overlaps,
    _point,
    find_long_member,
    is_theta5_thin,
    membership_U,
    select_Yi,
    theta_S,
    verify_thin_theorem,
)
import reference
from reference import (
    certify_reference,
    chain_reference,
    find_long_member_reference,
    overlaps_reference,
    reference_steps,
    select_Z,
    surd_enclosure,
    verify_thin_reference,
    walk_graph,
    walk_one_level,
)

THETA_P = Fraction(6)
# xi = 1/(2000 + 1/phi): a surd direction with a deep 0-ball projection
DEEP_SURD = GroupElement(1, 0, 2000, 1).apply_boundary(PHI)


def sl2z_words(max_len=10):
    """Random words in S, T and T^-1, multiplied out."""
    gens = st.sampled_from([GEN_S, GEN_T, GEN_T.inverse()])
    return st.lists(gens, max_size=max_len).map(
        lambda word: math.prod(word, start=IDENTITY))


def expansion(a0, quotients) -> Fraction:
    """The rational [a0; quotients]."""
    tail = Fraction(0)
    for a in reversed(quotients):
        tail = 1 / (a + tail)
    return a0 + tail


def seeded_pairs(seed: int, n: int) -> list:
    """n pairs (g, p/q) as the thin workload draws them: g in the word
    ball of radius 2, q <= 10^4 and |p| <= 2q."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        q = rng.randint(1, 10 ** 4)
        pairs.append((rng.choice(word_ball(2)),
                      Fraction(rng.randint(-2 * q, 2 * q), q)))
    return pairs


def bench_pairs(seed: int) -> list:
    """The 120 pairs (g, p/q) of the thin benchmark at a seed: coprime p
    and q with q <= 10^4 and |p| <= 2q, and g in the word ball of radius
    2."""
    rng = random.Random(seed)
    els, pairs = word_ball(2), []
    while len(pairs) < 120:
        q = rng.randint(1, 10 ** 4)
        p = rng.randint(-2 * q, 2 * q)
        if math.gcd(p, q) == 1:
            pairs.append((rng.choice(els), Fraction(p, q)))
    return pairs


def walk(w, ladder):
    """Both Y_i from the walk along the chain toward Z(e, w)."""
    _, _, *ys = _base_walk(_point(w), ladder)
    return {i: Horoball(*y) for i, y in zip((1, 2), ys)}


def program_Z(g, xi, ladder):
    """Z(g, xi) as the program's walk chooses it."""
    walk = _base_walk(_point(g.inverse().apply_boundary(xi)), ladder)
    return None if walk is None else Horoball(*walk[0]).translate(g)


def base_Z(w, ladder):
    """Z(e, w) from the reference's definition."""
    return select_Z(IDENTITY, w, ladder)


def certify(Y0, i, w, Z, ladder, max_halvings):
    """_certify_yes on the integer pairs of Y0, w and Z, with the chain
    toward Z, as certify_reference gives its answer."""
    k = _certify_yes((Y0.p, Y0.q), i, _point(w), (Z.p, Z.q),
                     rational_hits(Z.p, Z.q, ladder.theta), ladder,
                     max_halvings)
    return ("boundary-uncertain", None) if k is None else \
        ("yes", Fraction(1, 4 << k))


def in_fractions(g, S, got):
    """A member (Y, i, [(w, k)]) of `find_long_member` at g in the form of
    `find_long_member_reference`: (Y, i, [(g s, w, 2^-(k+2)) for s in S]),
    w a Fraction or a Surd; None stays None."""
    if got is None:
        return None
    Y, i, certificates = got
    return Y, i, [(g * s, w if isinstance(w, Surd) else Fraction(*w),
                   Fraction(1, 4 << k))
                  for s, (w, k) in zip(S.elements, certificates)]


def near_ladder_points():
    """Rationals within 50 / 2^k of a point where a test of _certify_yes
    flips at the pinned ladder: 0, +-Theta_i and +-(Theta_i + theta_P)."""
    anchors = [Fraction(0), Fraction(1, 3)] + [
        s * (120 * (i + 1) + t) for i in (1, 2) for s in (1, -1)
        for t in (0, 6)]
    return st.builds(lambda a, n, d, k: a + Fraction(n, d) / 2 ** k,
                     st.sampled_from(anchors), st.integers(-50, 50),
                     st.integers(1, 50), st.integers(0, 16))


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
        Z = program_Z(IDENTITY, Fraction(3, 7), ladder)
        assert Z == select_Z(IDENTITY, Fraction(3, 7), ladder) == \
            Horoball(3, 7)

    def test_select_z_equivariant(self, ladder):
        # the program's Z at g xi moves with g, and equals the reference's
        for xi in (Fraction(5, 12), DEEP_SURD):
            base = program_Z(IDENTITY, xi, ladder)
            for g in (GEN_T, GEN_S):
                assert program_Z(g, g.apply_boundary(xi), ladder) == \
                    select_Z(g, g.apply_boundary(xi), ladder) == \
                    base.translate(g)

    def test_select_yi_deep_approximant(self, ladder):
        # xi = 1/500: the 0-ball projection d = 500 >= Theta_2 = 360
        xi = Fraction(1, 500)
        assert select_Yi(IDENTITY, xi, 1, ladder) == Horoball(0, 1)
        assert select_Yi(IDENTITY, xi, 2, ladder) == Horoball(0, 1)

    def test_walk_levels_differ(self, ladder):
        # xi = 1/300: the 0-ball angle 300 clears Theta_1 = 240 but not
        # Theta_2 = 360, so Y_2 walks on to the tangency; asked in both
        # orders, since one walk answers both levels
        xi = Fraction(1, 300)
        assert select_Yi(IDENTITY, xi, 2, ladder) == Horoball(1, 300)
        assert select_Yi(IDENTITY, xi, 1, ladder) == Horoball(0, 1)
        assert select_Yi(IDENTITY, xi, 2, ladder) == Horoball(1, 300)

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-400, 400),
           st.lists(st.integers(1, 5) | st.integers(1, 800), min_size=1,
                    max_size=5),
           st.sampled_from([1, 2]))
    @example(0, [401], 1)
    @example(0, [487], 1)
    def test_chain_agrees_with_graph_oracle(self, ladder, a0, quotients, i):
        # xi = [a0; quotients]: a partial quotient above Theta_i makes its
        # convergent's angle clear Theta_i.  The window anchored at oo and
        # xi holds every V with d^pi_V(oo, xi) > theta, which is the whole
        # chain, so the graph contains the walk
        xi = expansion(a0, quotients)
        Z = Horoball.at(xi)
        window = build_window((BASE_INDEX, Z), 2 * ladder.theta, Fraction(2))
        graph = ProjComplexGraph(window)
        assert {Horoball(p, q) for p, q, _ in rational_hits(
            Z.p, Z.q, ladder.theta)} <= set(graph.vertices)
        assert select_Yi(IDENTITY, xi, i, ladder) == \
            walk_graph(xi, i, ladder, graph)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-400, 400),
           st.lists(st.integers(1, 5) | st.integers(230, 250)
                    | st.integers(350, 370) | st.integers(1, 800),
                    max_size=5))
    @example(300, [2])
    @example(240, [])  # the basepoint angle is exactly Theta_1
    @example(0, [240])
    def test_one_walk_equals_walk_per_level(self, ladder, a0, quotients):
        # both levels from one walk, against a walk per level measured by
        # proj_dist_frac; partial quotients near Theta_1 = 240 and
        # Theta_2 = 360 put the angles on either side of the thresholds
        xi = expansion(a0, quotients)
        Z = base_Z(xi, ladder)
        assert walk(xi, ladder) == {
            i: walk_one_level(Z, i, ladder, xi) for i in (1, 2)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-5, 5),
           st.lists(st.integers(1, 4) | st.integers(300, 330), min_size=1,
                    max_size=2))
    @example(0, [318, 1])
    @example(2, [318, 3, 2])
    def test_one_walk_equals_walk_per_level_below_two(self, a0, quotients):
        # at theta = 1/2 the chain holds hits that are not convergents, so
        # neighbours in the order need not be Farey neighbours, and both
        # determinants below the angle's fraction count; partial quotients
        # near 315 put the angles near Theta_2 = 315
        ladder = ThetaLadder(Fraction(1, 2), Fraction(10), THETA_P)
        xi = expansion(a0, quotients)
        Z = base_Z(xi, ladder)
        assert walk(xi, ladder) == {
            i: walk_one_level(Z, i, ladder, xi) for i in (1, 2)}


class TestChain:
    @settings(max_examples=300, deadline=None)
    @given(st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                     st.integers(1, 10 ** 8))
           # a_1 = 1, with a0 of either sign, and large partial quotients
           | st.builds(expansion, st.integers(-60, 60),
                       st.lists(st.integers(1, 9) | st.integers(2, 600),
                                max_size=12).map(lambda t: [1] + t)),
           st.sampled_from([Fraction(2), 2 + Fraction(1, 20 << 20),
                            Fraction(5, 2), Fraction(7),
                            # below 2, where hits may share a denominator
                            Fraction(5, 4), Fraction(1, 2)]))
    @example(Fraction(-1, 3), Fraction(2))  # [-1; 1, 2]
    @example(Fraction(-2, 5), Fraction(2))  # [-1; 1, 1, 2]
    @example(expansion(-3, [1, 7, 1, 300]), Fraction(7))
    def test_chain_equals_enumeration(self, w, theta):
        # the Euclid walk of w = a/b against the hits of the enumeration,
        # sorted: the same vertices, order and residuals
        a, b = w.numerator, w.denominator
        assert tuple(rational_hits(a, b, theta)) == \
            chain_reference(a, b, theta)

    def test_chain_below_two_orders_ties_by_size(self):
        # at theta < 2 hits need not be convergents: -1/3 = [-1; 1, 2] has
        # the hits -1/1 and 0/1 of equal denominator, 0/1 first by |p|,
        # where the (q, p) order of the enumeration puts -1/1 first
        theta = Fraction(5, 4)
        assert tuple(rational_hits(-1, 3, theta)) == \
            chain_reference(-1, 3, theta) == \
            ((0, 1, 1), (-1, 1, 2), (-1, 2, 1))


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
        m = membership_U(Horoball(0, 1), 1, IDENTITY, DEEP_SURD, ladder)
        assert m.verdict == "yes"
        assert m.delta == Fraction(1, 2048)

    @settings(max_examples=60, deadline=None)
    @given(sl2z_words(), sl2z_words(),
           st.fractions(-3, 3, max_denominator=40)
           | st.sampled_from([PHI, DEEP_SURD, Fraction(1, 500)])
           | st.integers(0, 10 ** 6).map(lambda n: seeded_pairs(n, 1)[0][1]),
           st.sampled_from([1, 2]))
    def test_select_and_membership_equivariant(self, ladder, g, h, base, i):
        # (g, xi) with xi = g base, moved by h: Y_i moves with it, and
        # every membership answer (verdict, delta, detail) is unchanged;
        # base also as the thin workload draws it, q <= 10^4
        xi = g.apply_boundary(base)
        hxi = h.apply_boundary(xi)
        Y = select_Yi(g, xi, i, ladder)
        hY = select_Yi(h * g, hxi, i, ladder)
        assert hY == (None if Y is None else Y.translate(h))
        for V in {Y or BASE_INDEX, BASE_INDEX.translate(g),
                  Horoball(1, 1).translate(g)}:
            assert membership_U(V.translate(h), i, h * g, hxi, ladder) == \
                membership_U(V, i, g, xi, ladder)

    @settings(max_examples=150, deadline=None)
    @given(st.fractions(-1000, 1000, max_denominator=3000)
           | near_ladder_points()
           | st.builds(lambda g, c: (g * GroupElement(1, 0, c, 1))
                       .apply_boundary(SQRT2), sl2z_words(),
                       st.integers(600, 3000))
           | st.builds(lambda g, c: (g * GroupElement(1, 0, c, 1))
                       .apply_boundary(PHI), sl2z_words(),
                       st.integers(50, 3000)),
           st.sampled_from([1, 2]), st.sampled_from([48, 12, 3]),
           st.sampled_from(["walk", "base", "tangency", "ball", "near",
                            "first", "last"]))
    # blockers on either side of w, and a start of the halvings in the
    # middle of the sequence
    @example(Fraction(-25, 13824), 1, 48, "tangency")
    @example(Fraction(-25, 13824), 1, 12, "walk")
    @example(Fraction(368639, 1024), 2, 48, "tangency")
    @example(Fraction(2330143, 9472), 2, 48, "walk")
    @example(Fraction(70778869, 196608), 2, 48, "walk")
    # the 0-ball's value 245 lies between Theta_1 and Theta_1 + theta_P
    @example(Fraction(1, 245), 1, 48, "ball")
    # the 0-ball's value is exactly Theta_4 / 2 = 300: no competitor
    @example(Fraction(1, 300), 1, 48, "tangency")
    def test_certificate_matches_fraction_reference(self, ladder, w, i,
                                                    halvings, pick):
        # w rational, or a surd g (1, 0, c, 1) SQRT2 or g (1, 0, c, 1) PHI,
        # whose enclosure n / 2^200 < w < (n + 1) / 2^200 meets the
        # reference's enclosure by mpmath; a surd without Z has no
        # certificate to check.  (1, 0, c, 1) puts a partial quotient near c
        # into the expansion, so at c >= 600 = Theta_4 most words g keep a
        # projection above Theta_4 (plain g PHI and g SQRT2 never do)
        try:
            Z = base_Z(w, ladder)
        except WindowRequiredError:
            reject()
        if Z is None:
            reject()
        chain = [Horoball(p, q) for p, q, _ in rational_hits(
            Z.p, Z.q, ladder.theta)] or [Z]
        Y0 = {"walk": walk(w, ladder)[i], "base": BASE_INDEX,
              "tangency": Z, "ball": Horoball(0, 1),
              "near": Horoball(math.floor(w + Fraction(1, 2)), 1),
              "first": chain[0],
              "last": chain[-1]}[pick]
        m = certify(Y0, i, w, Z, ladder, halvings)
        assert m == certify_reference(Y0, i, w, Z, ladder, halvings)

    @settings(max_examples=100, deadline=None)
    @given(sl2z_words(), st.sampled_from([PHI, SQRT2, DEEP_SURD]))
    def test_surd_centre_enclosure(self, g, xi):
        # n / 2^200 < w < (n + 1) / 2^200, inside the reference's mpmath
        # enclosure widened by 2^-200
        w = g.apply_boundary(xi)
        lo, hi, den = _centre(w)
        assert (hi - lo, den) == (1, 1 << 200)
        assert Fraction(lo, den) < w < Fraction(hi, den)
        ref_lo, ref_hi = surd_enclosure(w)
        assert ref_lo - Fraction(1, den) <= Fraction(lo, den) <= ref_hi

    @pytest.mark.parametrize("Y0", [Horoball(0, 1), BASE_INDEX,
                                    Horoball(1, 2000)], ids=repr)
    def test_surd_certificate_matches_fraction_reference(self, ladder, Y0):
        w = DEEP_SURD
        Z = base_Z(w, ladder)
        for i in (1, 2):
            m = certify(Y0, i, w, Z, ladder, 48)
            assert m == certify_reference(Y0, i, w, Z, ladder, 48)

    @pytest.mark.parametrize("w, Y0, i, searched", [
        # the basepoint angle |w| = 233 never exceeds Theta_1 + theta_P
        (Fraction(233), BASE_INDEX, 1, 0),
        # |w| > Theta_1 leaves no room, and a blocker stops the halvings
        # at k = 8: no step has first <= k < stop
        (Fraction(-191136, 301), Horoball(-191136, 301), 1, 0),
        # the pole-free tests hold at every step and the rest never do
        (Fraction(233), Horoball(0, 1), 1, 48),
        (Fraction(27, 2), Horoball(14, 1), 2, 48),
    ], ids=str)
    def test_delta_exhausted(self, ladder, w, Y0, i, searched):
        # the steps whose pole-free tests hold are first <= k < stop of
        # _certify_yes: `searched` of them, and none passes the rest
        Z = base_Z(w, ladder)
        steps = list(reference_steps(Y0, i, w, Z, ladder, 48))
        assert sum(free for free, _ in steps) == searched
        assert not any(ok for _, ok in steps)
        m = certify(Y0, i, w, Z, ladder, 48)
        assert m == ("boundary-uncertain", None)

    @pytest.mark.parametrize("w, Y0, i, halvings, k", [
        # Z's Theta_4 test decides: at w = a/b, Z = Horoball(a, b) first
        # passes it at the k with 2^(k+1) > (Theta_4 + theta_P) b^2
        (Fraction(1, 500), Horoball(0, 1), 1, 48, 27),
        # Y0's own Theta_4 test passes first, at k = 16 below Z's 32 (a
        # certificate of the thin benchmark at seed 7)
        (Fraction(12233, 3598), Horoball(17, 5), 1, 48, 16),
        # Y0's test (1) never passes
        (Fraction(306319, 1047), Horoball(293, 1), 2, 48, None),
        # first = stop = 12 at the basepoint index (its angle 1/2 never
        # clears the margin), though Z's test alone passes at k = 11
        (Fraction(1, 2), BASE_INDEX, 1, 12, None),
    ], ids=["guess", "below-guess", "guess-fails", "empty-range"])
    def test_delta_search_from_z_threshold(self, ladder, w, Y0, i, halvings,
                                           k):
        Z = base_Z(w, ladder)
        m = certify(Y0, i, w, Z, ladder, halvings)
        assert m[1] == (None if k is None else Fraction(1, 4 << k))
        assert m == certify_reference(Y0, i, w, Z, ladder, halvings)

    def test_delta_search_guess_below_range(self):
        # Theta_1 = 240 + 2^-20 leaves w = 240 the room 2^-20 below the
        # basepoint angle's bound, so k = 20, above Z's own k = 9
        ladder = ThetaLadder(Fraction(2) + Fraction(1, 20 << 20),
                             Fraction(10), Fraction(6))
        w = Fraction(240)
        Z = base_Z(w, ladder)
        m = certify(Z, 1, w, Z, ladder, 48)
        assert m[1] == Fraction(1, 4 << 20)
        assert m == certify_reference(Z, 1, w, Z, ladder, 48)

    def test_family_index_validated(self, ladder):
        with pytest.raises(ValueError):
            membership_U(Horoball(0, 1), 3, IDENTITY, Fraction(1, 500),
                         ladder)


class TestEndpointTest:
    """The integer test b m.den > m.num q |q a - p b| of d^pi_Y(X, a/b) > m,
    Y and m passed as their integer pairs, against proj_dist_frac, the
    Fraction oracle."""

    @staticmethod
    def oracle(Y, a, b, m):
        d = proj_dist_frac(Y, INFINITY, Fraction(a, b))
        return None if d is INFINITE else d > m

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 4),
           st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
           st.integers(1, 5), st.fractions(0, 10 ** 4).filter(bool))
    def test_agrees_with_proj_dist_frac(self, p, q, a, b, k, m):
        # Y with any sign of p (or the cusp), e = a/b in unreduced terms
        if p == 0 and q == 0:
            p = 1
        Y = Horoball(p, q)
        assert _exceeds((Y.p, Y.q), k * a, k * b, m.as_integer_ratio()) == \
            self.oracle(Y, a, b, m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 3),
           st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
           st.fractions(-1, 1).filter(bool))
    def test_margins_around_the_value(self, p, q, a, b, eps):
        # margins just below, at and just above the finite value
        Y = Horoball(p, q)
        d = proj_dist_frac(Y, INFINITY, Fraction(a, b))
        if d is INFINITE:
            return
        for m in (d - abs(eps) * d, d, d + abs(eps) * d):
            if m > 0:
                assert _exceeds((Y.p, Y.q), a, b, m.as_integer_ratio()) == \
                    (d > m) == self.oracle(Y, a, b, m)

    @pytest.mark.parametrize("Y", [Horoball(3, 7), Horoball(-3, 7),
                                   Horoball(-5, 1)], ids=repr)
    def test_pole_is_infinite(self, Y):
        for k in (1, 2, 9):
            assert _exceeds((Y.p, Y.q), k * Y.p, k * Y.q, (10 ** 9, 1)) is None
            assert self.oracle(Y, Y.p, Y.q, Fraction(1)) is None

    def test_cusp_is_infinite(self):
        cusp = Horoball(1, 0)
        for a, b in ((0, 1), (-3, 7), (10 ** 6, 1)):
            assert _exceeds((cusp.p, cusp.q), a, b, (1, 10 ** 9)) is None
            assert self.oracle(cusp, a, b, Fraction(1)) is None

    def test_pinned_values(self):
        # d^pi_{2/5}(X, 1/3) = 3/(5 |5 - 6|) = 3/5
        Y = Horoball(2, 5)
        assert _exceeds((Y.p, Y.q), 1, 3, (1, 2)) is True
        assert _exceeds((Y.p, Y.q), 1, 3, (3, 5)) is False
        assert _exceeds((Y.p, Y.q), 2, 6, (59, 100)) is True
        assert _exceeds((Y.p, Y.q), 1, 3, (6, 10)) is False  # m in any terms
        assert _exceeds((-2, 5), -1, 3, (3, 5)) is False


class TestTheorem:
    def test_thinness_classifier(self, ladder):
        assert is_theta5_thin(IDENTITY, Fraction(1, 500), ladder)
        assert not is_theta5_thin(IDENTITY, PHI, ladder)
        assert not is_theta5_thin(IDENTITY, SQRT2, ladder)

    def test_long_member_on_anchor_collision(self, ladder, S3):
        # the base ball of g*s coincides with the deep chain vertex: the
        # basepoint preemption must still produce a common element
        xi = Fraction(13, 7634)
        got = find_long_member(GEN_S, xi, S3, ladder)
        assert got is not None
        Y, i, certificates = got
        assert Y == Horoball(0, 1)
        # one certificate per s, in the order of S, at w = (gs)^-1 xi
        assert [w for w, _ in certificates] == [
            _point((GEN_S * s).inverse().apply_boundary(xi))
            for s in S3.elements]
        assert all(0 <= k < 48 for _, k in certificates)

    @settings(max_examples=40, deadline=None)
    @given(sl2z_words(),
           st.builds(lambda q, p: Fraction(p, q), st.integers(1, 10 ** 4),
                     st.integers(-2 * 10 ** 4, 2 * 10 ** 4))
           | st.builds(lambda n, k: k + Fraction(1, n), st.integers(200, 400),
                       st.integers(-300, 300))
           | st.sampled_from([PHI, SQRT2])
           | st.builds(lambda c, xi: GroupElement(1, 0, c, 1)
                       .apply_boundary(xi), st.integers(-3000, 3000),
                       st.sampled_from([PHI, SQRT2])),
           st.sampled_from(["ball3", "ball2-minus-e"]))
    @example(GEN_S, Fraction(13, 7634), "ball3")
    @example(GEN_S, Fraction(6900, 29), "ball3")  # S-long at level 2 only
    @example(IDENTITY, Fraction(241, 240), "ball2-minus-e")  # level 2 only
    @example(GroupElement(1, 0, 1, 1), Fraction(1), "ball3")  # not S-long
    @example(IDENTITY, DEEP_SURD, "ball2-minus-e")
    def test_long_member_equals_reference(self, ladder, S3, g, base, S_name):
        # xi = g base: seeded rationals, rationals near the ladder's levels,
        # surd directions g PHI, g SQRT2 and deep ones; S with the identity
        # (g itself among the gs) or without
        xi = g.apply_boundary(base)
        S = S3 if S_name == "ball3" else FinitePart(
            tuple(h for h in word_ball(2) if h != IDENTITY))
        assert in_fractions(g, S, find_long_member(g, xi, S, ladder)) == \
            find_long_member_reference(g, xi, S, ladder)

    def test_long_member_needs_a_common_vertex(self, ladder, S3,
                                               monkeypatch):
        # at xi = S(6900/29) the translates disagree on Y_1, so even with
        # every certificate granted, at step 0 (delta = 1/4) in the program
        # and in the reference, the member is found at level 2
        g, xi = GEN_S, GEN_S.apply_boundary(Fraction(6900, 29))
        assert len({select_Yi(g * s, xi, 1, ladder)
                    for s in S3.elements}) > 1
        monkeypatch.setattr(thin_cover, "_certify_yes", lambda *args: 0)
        monkeypatch.setattr(reference, "certify_reference",
                            lambda *args: ("yes", Fraction(1, 4)))
        got = find_long_member(g, xi, S3, ladder)
        assert got[1] == 2
        assert in_fractions(g, S3, got) == \
            find_long_member_reference(g, xi, S3, ladder)

    @pytest.mark.parametrize("seed, S_name, not_long", [
        (31, "ball3", 2), (37, "ball2-minus-e", 0)])
    def test_verify_equals_reference_loop(self, ladder, S3, seed, S_name,
                                          not_long):
        # the report with disjointness swept in integers, against the
        # members by definition and every pair of their intervals compared
        # in Fractions; S with and without the identity
        S = S3 if S_name == "ball3" else FinitePart(
            tuple(h for h in word_ball(2) if h != IDENTITY))
        # 237 + 1/300 and its S-image are not S-long at radius 3; xi = 1
        # is the moved basepoint's tangency, so it is not tested
        samples = seeded_pairs(seed, 12) + [
            (IDENTITY, Fraction(241, 240)), (GEN_S, Fraction(13, 7634)),
            (IDENTITY, 237 + Fraction(1, 300)), (GEN_S, Fraction(-300, 71101)),
            (GroupElement(1, 0, 1, 1), Fraction(1))]
        got = verify_thin_theorem(S, ladder, samples)
        assert (got.pairs_tested, got.long_failures) == \
            (len(samples) - 1, not_long)
        assert got == verify_thin_reference(S, ladder, samples)

    def test_reference_runs_without_the_fast_kernels(self, ladder, S3,
                                                       monkeypatch):
        # the oracle shares neither the walk, the chain's Euclid walk nor
        # the certificate with the program: with all of them refusing, it
        # still gives the program's report
        samples = seeded_pairs(53, 4) + [(GEN_S, Fraction(6900, 29))]
        want = verify_thin_theorem(S3, ladder, samples)

        def refuse(*args):
            raise AssertionError("fast-path kernel called")

        for name in ("_base_walk", "_certify_yes", "rational_hits"):
            monkeypatch.setattr(thin_cover, name, refuse)
        monkeypatch.setattr(projection_data, "rational_hits", refuse)
        with pytest.raises(AssertionError, match="fast-path"):
            verify_thin_theorem(S3, ladder, samples)
        assert verify_thin_reference(S3, ladder, samples) == want
        assert want.pairs_tested == len(samples)

    def test_bench_scale_branches_equal_reference(self, ladder, S3):
        # pairs drawn as the thin benchmark draws them (q <= 10^4, S the
        # word ball of radius 3) whose translates take Y_1 at a chain
        # vertex (seed 7, pairs 41 and 86; seed 1009, pair 56), at the
        # basepoint index too (seed 1009, pairs 8 and 60) or at Z
        # everywhere (pair 0 of each), and seeded surd pairs
        # g (1, 0, c, 1) SQRT2, c in [600, 3000], against the reference
        seven, other = bench_pairs(7), bench_pairs(1009)
        rng = random.Random(59)
        pairs = [seven[n] for n in (0, 41, 86)] + \
            [other[n] for n in (0, 8, 56, 60)] + [
                (g, (g * GroupElement(1, 0, rng.randint(600, 3000), 1))
                 .apply_boundary(SQRT2)) for g in rng.sample(word_ball(2), 3)]
        kinds = set()
        for g, xi in pairs:
            for s in S3.elements:
                w = (g * s).inverse().apply_boundary(xi)
                Z = base_Z(w, ladder)
                Y = walk_one_level(Z, 1, ladder, w)
                kinds.add("base" if Y == BASE_INDEX else "Z" if Y == Z
                          else "chain")
            assert in_fractions(g, S3, find_long_member(g, xi, S3, ladder)) \
                == find_long_member_reference(g, xi, S3, ladder)
        assert kinds == {"base", "Z", "chain"}

    def test_rational_path_skips_enumeration(self, ladder, S3, monkeypatch):
        # at theta = 2 a rational chain comes from one Euclid walk: the
        # enumeration is never called, and the members do not change
        samples = seeded_pairs(43, 10)
        want = [find_long_member(g, xi, S3, ladder) for g, xi in samples]

        def refuse(*args):
            raise AssertionError("enumerate_large_projections called")

        for module in (projection_data, thin_cover):
            monkeypatch.setattr(module, "enumerate_large_projections", refuse)
        assert ladder.theta == 2
        assert [find_long_member(g, xi, S3, ladder)
                for g, xi in samples] == want
        assert any(want)

    def test_one_chain_per_translate(self, ladder, S3, monkeypatch):
        # the walk and the certificate of a translate share its one chain
        calls = []

        def counted(*args):
            calls.append(args)
            return rational_hits(*args)

        monkeypatch.setattr(thin_cover, "rational_hits", counted)
        for g, xi in seeded_pairs(47, 5):
            calls.clear()
            assert find_long_member(g, xi, S3, ladder) is not None
            assert len(calls) == len(S3.elements)

    def test_one_product_per_distinct_g(self, ladder, S3, monkeypatch):
        # verification forms g s once per distinct g, in the disjointness
        # sweep, and reads each certificate's enclosure once beyond those
        # its certification reads
        samples = seeded_pairs(61, 30)
        calls = {"__mul__": 0, "_centre": 0, "_certify_yes": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(GroupElement, "__mul__",
                            counted("__mul__", GroupElement.__mul__))
        for name in ("_centre", "_certify_yes"):
            monkeypatch.setattr(thin_cover, name,
                                counted(name, getattr(thin_cover, name)))
        rep = verify_thin_theorem(S3, ladder, samples)
        members = rep.pairs_tested - rep.long_failures - \
            rep.boundary_uncertain
        distinct = len({g for g, _ in samples})
        assert distinct < members
        assert 0 < calls["__mul__"] <= distinct * len(S3.elements)
        assert calls["_centre"] == \
            calls["_certify_yes"] + members * len(S3.elements)

    def test_inflated_certificates_overlap(self, monkeypatch):
        # the disjointness sweep can fail: on the default thin sample the
        # certified intervals are disjoint, and with every delta of
        # _certify_yes scaled by 2^6 some of them overlap
        cfg = dict(cli.DEFAULT_CONFIG)
        S = FinitePart.word_ball(cfg["theta_S_radius"])
        ladder, samples = cli._ladder(cfg), cli._thin_samples(cfg)
        assert verify_thin_theorem(S, ladder, samples).disjointness_failures \
            == 0
        certify_yes = thin_cover._certify_yes

        def inflated(*args):
            # delta = 2^-(k+2) times 2^6; every step k here is at least 9,
            # as the tests of Z and Y0 at Theta_4 + theta_P need 2^(k+1) >
            # 606 q^2
            k = certify_yes(*args)
            return None if k is None else k - 6

        monkeypatch.setattr(thin_cover, "_certify_yes", inflated)
        rep = verify_thin_theorem(S, ladder, samples)
        assert rep.disjointness_failures >= 1
        assert rep.long_failures == 0
        assert rep.witnesses[0]["failure"] == "overlap"

    def test_accumulating_surd_is_boundary_uncertain(self):
        # xi = -500 + sqrt(250001) = [0; 1000, 1000, ...]: the convergent
        # values tend to about 1000 > Theta_5 = 540, so the pair is thin,
        # but infinitely many of them exceed Theta_4 and Z is undefined
        S = FinitePart.word_ball(1)
        ladder = ThetaLadder(Fraction(2), theta_S(S, THETA_P), THETA_P)
        xi = Surd(-500, 1, 250001, 1)
        assert is_theta5_thin(IDENTITY, xi, ladder)
        assert select_Yi(IDENTITY, xi, 1, ladder) is None
        assert select_Yi(IDENTITY, xi, 2, ladder) is None
        assert membership_U(Horoball(0, 1), 1, IDENTITY, xi,
                            ladder).verdict == "boundary-uncertain"
        with pytest.raises(WindowRequiredError, match="accumulate"):
            find_long_member(IDENTITY, xi, S, ladder)
        # an equivalent surd has the same periodic tail, so it accumulates
        # at every translate as well
        samples = [(IDENTITY, xi), (GEN_S, GEN_T.apply_boundary(xi))]
        rep = verify_thin_theorem(S, ladder, samples)
        assert (rep.pairs_tested, rep.long_failures,
                rep.boundary_uncertain) == (2, 0, 2)
        assert rep.witnesses[0] == {
            "g": repr(IDENTITY), "xi": str(xi),
            "failure": "boundary-uncertain",
            "reason": "large projections accumulate"}
        assert rep == verify_thin_reference(S, ladder, samples)

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


A, B, C = Horoball(0, 1), Horoball(1, 2), Horoball(1, 1)
# S = {e}: each member's one certificate is of its own g; S = {e, GEN_S}:
# a member at g = e or GEN_S has certificates at both of those translates
ONE = FinitePart((IDENTITY,))
TWO = FinitePart((IDENTITY, GEN_S))


def member(Y, w, k, g=IDENTITY, i=1):
    """A member at g with S = ONE: its certificate (w, k) at g, w a
    Fraction (given as its pair) or a Surd, delta = 2^-(k+2)."""
    return g, Y, i, [(_point(w), k)]


def certificates():
    """Hand-built members (g, Y, i, [(w, k) for s in TWO]) with points on a
    grid of 1/4 (integer pairs), PHI or SQRT2 and steps k in 0..3, so that
    their intervals touch and overlap often."""
    cert = st.tuples(
        st.builds(lambda a, b: _point(Fraction(a, b)), st.integers(-8, 8),
                  st.sampled_from([1, 2, 4]))
        | st.sampled_from([PHI, SQRT2]),
        st.integers(0, 3))
    return st.lists(st.tuples(
        st.sampled_from([IDENTITY, GEN_S]), st.sampled_from([A, B, C]),
        st.sampled_from([1, 2]), st.lists(cert, min_size=2, max_size=2)),
        max_size=12)


def reference_overlaps(members, S):
    """`overlaps_reference` on the members converted to Fractions."""
    return overlaps_reference([in_fractions(g, S, got)
                               for g, *got in members])


class TestDisjointness:
    """The sweep of certified intervals (`_overlaps`) against every pair
    compared in Fractions (`overlaps_reference`)."""

    def test_touching_ends_overlap(self):
        # [-1/4, 1/4] and [1/4, 3/4] share 1/4
        members = [member(A, 0, 0), member(B, Fraction(1, 2), 0)]
        assert list(_overlaps(members, ONE)) == [(1, IDENTITY, A)]
        # the later left end is flagged, whatever the order given
        assert list(_overlaps(members[::-1], ONE)) == [(0, IDENTITY, A)]

    def test_same_member_may_overlap(self):
        # [-1/4, 1/4] and [-1/8, 3/8] both certify A
        members = [member(A, 0, 0), member(A, Fraction(1, 8), 0)]
        assert list(_overlaps(members, ONE)) == []
        # another member meets the second interval only, at 3/8
        members.append(member(B, Fraction(1, 2), 1))
        assert list(_overlaps(members, ONE)) == [(2, IDENTITY, A)]

    def test_other_translate_or_level_never_overlaps(self):
        members = [member(A, 0, 0), member(B, 0, 0, i=2),
                   member(B, 0, 0, g=GEN_S)]
        assert list(_overlaps(members, ONE)) == []

    def test_exact_far_from_zero(self):
        # at w = 10^6 the gap 2^-80 between [w - d, w + d], d = 2^-49 (k =
        # 47), and the next interval is far below one ulp of w; touching
        # is flagged
        w, d = Fraction(10 ** 6), Fraction(1, 2 ** 49)
        for gap, flagged in ((Fraction(1, 2 ** 80), False), (0, True)):
            members = [member(A, w, 47), member(B, w + 2 * d + gap, 47)]
            assert float(w + d) == float(w + d + gap)
            assert bool(list(_overlaps(members, ONE))) == flagged

    def test_surd_centre(self):
        # PHI enters with the inner interval [hi0 - 1/4, lo0 + 1/4] of its
        # enclosure lo0 = n / 2^200 < PHI < hi0 = (n + 1) / 2^200, where
        # n = floor((2^200 + sqrt5 2^200) / 2), so an interval from
        # lo0 + 1/4 touches it and one from hi0 + 1/4 does not, nor does
        # [15/8, 17/8]
        n = ((1 << 200) + math.isqrt(5 << 400)) // 2
        lo0, hi0 = Fraction(n, 1 << 200), Fraction(n + 1, 1 << 200)
        assert lo0 < PHI < hi0
        d = Fraction(1, 8)
        for left, flagged in ((lo0 + 2 * d, True), (hi0 + 2 * d, False),
                              (Fraction(15, 8), False)):
            members = [member(A, PHI, 0), member(B, left + d, 1)]
            assert list(_overlaps(members, ONE)) == \
                ([(1, IDENTITY, A)] if flagged else [])

    def test_rival_reaching_furthest_right(self):
        # B on [0, 1/2], A on [1/32, 9/32], C on [1/16, 3/16] (the three
        # overlapping members B on [0, 2], A on [1/8, 9/8], C on [1/4, 3/4]
        # scaled by 1/4): C meets both, and B reaches further right than A,
        # the rival of least (q, p)
        members = [member(B, Fraction(1, 4), 0),
                   member(A, Fraction(5, 32), 1),
                   member(C, Fraction(1, 8), 2)]
        want = [(1, IDENTITY, B), (2, IDENTITY, B)]
        assert list(_overlaps(members, ONE)) == want
        assert reference_overlaps(members, ONE) == want
        # A on [1/4, 1/2] reaches as far as B: the tie names A, of least q
        members[1:] = [member(A, Fraction(3, 8), 1),
                       member(C, Fraction(5, 16), 2)]
        want = [(1, IDENTITY, B), (2, IDENTITY, A)]
        assert list(_overlaps(members, ONE)) == want
        assert reference_overlaps(members, ONE) == want

    @settings(max_examples=200, deadline=None)
    @given(certificates())
    def test_sweep_equals_all_pairs(self, members):
        # the same certificates flagged, each naming the same rival
        assert sorted(_overlaps(members, TWO), key=repr) == \
            sorted(reference_overlaps(members, TWO), key=repr)
