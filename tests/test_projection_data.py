"""Projection-axiom machinery: exact axiom checks, the fast enumeration
against brute force, the continued-fraction kernel against an exact surd
oracle, the Behrstock constant, and exact sups."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from horocover.hyperbolic import (
    GEN_S,
    GEN_T,
    HOROBALL_INF,
    IDENTITY,
    GroupElement,
    Horoball,
    word_ball,
)
from horocover.projection_data import (
    FareyFamily,
    WindowRequiredError,
    brute_force_large_projections,
    calibrate_behrstock,
    check_behrstock,
    check_finiteness,
    check_symmetry,
    check_triangle,
    enumerate_large_projections,
    enumerate_large_projections_windowed,
    pair_maxmin,
    random_rational,
    sample_triples_rational,
    stern_brocot_horoball,
    sup_projection,
    surd_sample_set,
)
from horocover.surd import INFINITY, PHI, SQRT2, Surd

THRESHOLDS = (Fraction(2), Fraction(5437, 1000), Fraction(300))
ORACLE_QMAX = 1500


def sl2z_words(max_len=12):
    """Random words in S, T and T^-1, multiplied out."""
    gens = st.sampled_from([GEN_S, GEN_T, GEN_T.inverse()])
    return st.lists(gens, max_size=max_len).map(
        lambda word: math.prod(word, start=IDENTITY))


def kernel_directions():
    """The surd sample set, seeded translates of PHI and SQRT2, (1, 0, c, 1)
    PHI, whose expansion starts with a large quotient, and two directions
    whose supremum is a class limit that no convergent attains: sqrt(2)/4
    = [0; 2, (1, 4)] with 4 sqrt(2), (sqrt(3) - 3)/2 with 2 sqrt(3)."""
    rng = random.Random(17)
    pool = word_ball(4)
    out = list(surd_sample_set()) + [Surd(0, 1, 2, 4), Surd(-3, 1, 3, 2)]
    for base in (PHI, SQRT2):
        for _ in range(3):
            out.append(pool[rng.randrange(len(pool))].apply_boundary(base))
    for c in (7, 40, 200):
        out.append(GroupElement(1, 0, c, 1).apply_boundary(PHI))
    return list(dict.fromkeys(out))


@lru_cache(maxsize=None)
def surd_oracle(w: Surd, qmax: int = ORACLE_QMAX):
    """Exact brute force: 1/(q |q w - p|) for every q <= qmax and every p
    within two of q w, in Surd arithmetic."""
    out = []
    for q in range(1, qmax + 1):
        center = math.floor(w * q)
        for p in range(center - 1, center + 3):
            if math.gcd(abs(p), q) != 1:
                continue
            out.append((Horoball(p, q), (abs(w * q - p) * q).inverse()))
    return out


@pytest.fixture(scope="module")
def family():
    return FareyFamily()


@pytest.fixture(scope="module")
def triples():
    rng = random.Random(11)
    return list(sample_triples_rational(rng, 2000, qmax=40))


class TestAxioms:
    def test_p1_symmetry(self, family, triples):
        rep = check_symmetry(family, triples)
        assert rep.violations == 0 and rep.samples == len(triples)

    def test_p2_triangle(self, family, triples):
        quads = [(Y, u, v, w) for (Y, u, v), (_, w, _w)
                 in zip(triples, triples[1:])]
        rep = check_triangle(family, quads)
        assert rep.violations == 0

    def test_p3_behrstock_bounded(self, family, triples):
        sample = [(Y, Yp, xi) for (Y, _u, xi), (Yp, _a, _b)
                  in zip(triples[:300], triples[300:600]) if Y != Yp]
        rep = check_behrstock(family, sample, theta=Fraction(2))
        assert rep.violations == 0
        assert rep.exact_constant <= 1

    def test_p4_enumeration_matches_brute_force(self, family):
        rng = random.Random(5)
        pairs = []
        while len(pairs) < 40:
            u, v = random_rational(rng, 30), random_rational(rng, 30)
            if u != v:
                pairs.append((u, v))
        pairs.append((INFINITY, Fraction(3, 7)))
        rep = check_finiteness(family, pairs, theta=Fraction(1, 4), qmax=60)
        assert rep.violations == 0


class TestEnumeration:
    def test_known_large_projection(self):
        # d^pi_{0/1}(oo, 1/100) = 100
        hits = dict(enumerate_large_projections(INFINITY, Fraction(1, 100),
                                                Fraction(50)))
        assert hits[Horoball(0, 1)] == 100

    def test_brute_force_subset(self):
        theta = Fraction(1, 2)
        fast = {(Y.p, Y.q): d for Y, d in enumerate_large_projections(
            Fraction(1, 3), Fraction(2, 3), theta)}
        slow = {(Y.p, Y.q): d for Y, d in brute_force_large_projections(
            Fraction(1, 3), Fraction(2, 3), theta, qmax=40)}
        for key, d in slow.items():
            assert fast[key] == d

    @pytest.mark.parametrize("w", kernel_directions(), ids=str)
    def test_cusp_kernel_agrees_with_surd_brute_force(self, w):
        oracle = surd_oracle(w)
        sup = sup_projection(HOROBALL_INF, w)
        assert all(sup.value.compare(d) >= 0 for _, d in oracle)
        if sup.witness is not None:
            assert (sup.witness, sup.value) in oracle
        for t in THRESHOLDS:
            slow = [(Y, d) for Y, d in oracle if d.compare(t) > 0]
            slow.sort(key=lambda hit: (hit[0].q, hit[0].p))
            try:
                hits, uncertain, kernel_sup = \
                    enumerate_large_projections_windowed(w, t)
            except WindowRequiredError as err:
                # accumulating hits: the oracle keeps finding them near qmax
                assert "accumulate" in str(err)
                assert any(Y.q > ORACLE_QMAX // 20 for Y, _ in slow)
                continue
            assert uncertain == []
            assert kernel_sup == sup
            assert [h for h in hits if h[0].q <= ORACLE_QMAX] == slow

    @pytest.mark.parametrize("w, t", [(PHI, Fraction(2237, 1000)),
                                      (Surd.sqrt_of(3), Fraction(693, 200))])
    def test_cusp_kernel_scans_past_first_period(self, w, t):
        # just above the class limit (sqrt(5), 2 sqrt(3)) the decreasing
        # class stays above t for a few periods after its first member
        hits, _, _ = enumerate_large_projections_windowed(w, t)
        slow = sorted(((Y, d) for Y, d in surd_oracle(w) if d.compare(t) > 0),
                      key=lambda hit: (hit[0].q, hit[0].p))
        assert len(hits) >= 3 and hits == slow

    def test_cusp_kernel_needs_theta_two(self):
        with pytest.raises(ValueError):
            enumerate_large_projections_windowed(PHI, Fraction(199, 100))

    @settings(max_examples=60, deadline=None)
    @given(sl2z_words(), st.fractions(-3, 3, max_denominator=30),
           st.fractions(-3, 3, max_denominator=30),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3)]))
    def test_rational_hits_equivariant(self, g, u, v, theta):
        base = {Y.translate(g): d
                for Y, d in enumerate_large_projections(u, v, theta)}
        moved = enumerate_large_projections(
            g.apply_boundary(u), g.apply_boundary(v), theta)
        assert dict(moved) == base
        assert [Y for Y, _ in moved] == sorted(Y for Y, _ in moved)

    @settings(max_examples=40, deadline=None)
    @given(sl2z_words(), st.sampled_from(kernel_directions()))
    def test_surd_hits_equivariant(self, g, w):
        # hits(g oo, g w) = g hits(oo, w): a rational g oo is moved back to
        # the cusp before the kernel runs
        theta = Fraction(300)
        base = {Y.translate(g): d
                for Y, d in enumerate_large_projections(INFINITY, w, theta)}
        moved = enumerate_large_projections(
            g.apply_boundary(INFINITY), g.apply_boundary(w), theta)
        assert dict(moved) == base


class TestBehrstockConstant:
    def test_small_window_value(self):
        theta_hat, rep = calibrate_behrstock(qmax=12)
        assert theta_hat == 1

    def test_calibration_is_deterministic(self):
        a, _ = calibrate_behrstock(qmax=10)
        b, _ = calibrate_behrstock(qmax=10)
        assert a == b

    def test_pair_maxmin_within_theta_hat(self):
        rng = random.Random(3)
        for _ in range(50):
            Y = stern_brocot_horoball(rng, 8)
            Yp = stern_brocot_horoball(rng, 8)
            if Y == Yp:
                continue
            val, _xi = pair_maxmin(Y, Yp)
            assert val <= 1


class TestSupProjection:
    def test_thick_direction_below(self):
        res = sup_projection(Horoball(1, 0), PHI)
        assert res.below(Fraction(6))
        assert not res.above(Fraction(6))

    def test_rational_direction_above(self):
        res = sup_projection(Horoball(1, 0), Fraction(1, 100))
        assert res.above(Fraction(50))

    def test_surd_sample_set_is_exact(self):
        for s in surd_sample_set():
            assert not s.is_rational
