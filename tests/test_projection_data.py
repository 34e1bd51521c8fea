"""Projection-axiom machinery: exact axiom checks, the fast enumeration
against brute force, the continued-fraction kernel against an exact surd
oracle, the Behrstock constant, and exact sups."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st
from test_hyperbolic import reference_proj_dist_frac

from horocover import projection_data
from horocover.certified import INFINITE

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
    AxiomReport,
    FareyFamily,
    WindowRequiredError,
    brute_force_large_projections,
    check_behrstock,
    check_finiteness,
    check_symmetry,
    check_triangle,
    enumerate_large_projections,
    enumerate_large_projections_windowed,
    finiteness_window,
    pair_maxmin,
    random_rational,
    sample_triples_rational,
    stern_brocot_horoball,
    sup_projection,
)
from horocover.surd import INFINITY, PHI, SQRT2, Surd
from reference import (
    brute_force_reference,
    calibrate_behrstock,
    enumerate_inf_rational_scan,
    sqrt_of,
    surd_sample_set,
)

THRESHOLDS = (Fraction(2), Fraction(5437, 1000), Fraction(300))
# below 2, where hits need not be convergents: 2 / theta an integer or not
BELOW_TWO = (Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(1, 4),
             Fraction(2, 7), Fraction(19, 10), Fraction(1999, 1000))
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


def p4_pairs():
    """Seeded pairs of distinct rationals, and one pair at the cusp."""
    rng = random.Random(5)
    pairs = []
    while len(pairs) < 40:
        u, v = random_rational(rng, 30), random_rational(rng, 30)
        if u != v:
            pairs.append((u, v))
    pairs.append((INFINITY, Fraction(3, 7)))
    return pairs


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
        rep = check_finiteness(family, p4_pairs(), theta=Fraction(1, 4))
        assert rep.violations == 0

    @pytest.mark.parametrize("theta", [Fraction(2), Fraction(5, 2)], ids=str)
    def test_p4_convergent_enumeration_matches_brute_force(self, family,
                                                           theta):
        # at theta >= 2 the two-rational pairs go through the convergents
        rep = check_finiteness(family, p4_pairs(), theta=theta)
        assert rep.violations == 0 and rep.samples == 41


class TestFinitenessWindow:
    @settings(max_examples=100, deadline=None)
    @given(st.fractions(-3, 3, max_denominator=60) | st.just(INFINITY),
           st.fractions(-3, 3, max_denominator=60) | st.just(INFINITY),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1),
                            Fraction(2), Fraction(5, 2)]))
    # the window attained, past m / theta = 24/5: W = floor(12 (2/5 + 1/23))
    # = 5 and -3/5 is a hit
    @example(Fraction(-7, 12), Fraction(-6, 7), Fraction(5, 2))
    def test_window_is_sound(self, u, v, theta):
        # the scan of every q <= 2 W + 20 finds no hit beyond the window,
        # and the banded oracle finds every hit within it
        W = finiteness_window(u, v, theta)
        ref = brute_force_reference(u, v, theta, 2 * W + 20)
        assert all(Y.q <= W for Y, _ in ref)
        assert brute_force_large_projections(u, v, theta) == ref

    def test_window_is_attained(self):
        u, v, theta = Fraction(-7, 12), Fraction(-6, 7), Fraction(5, 2)
        W = finiteness_window(u, v, theta)
        assert W == 5
        assert max(Y.q for Y, _ in brute_force_large_projections(
            u, v, theta)) == W

    @pytest.mark.parametrize("theta", [Fraction(1, 4), Fraction(2)], ids=str)
    def test_banded_oracle_equals_reference(self, theta):
        for u, v in p4_pairs():
            W = finiteness_window(u, v, theta)
            assert brute_force_large_projections(u, v, theta) == \
                brute_force_reference(u, v, theta, 2 * W + 20)

    def test_planted_enumeration_dropping_large_q(self, family, monkeypatch):
        # 4/239 is a hit against (oo, 1/60) at theta = 1/4: 239 |239 - 4
        # 60| < 60 / theta.  No pair of the default sample has one beyond
        # q = 200: with denominators <= 50, q n <= 50 (f_u + f_v) <= 200 n
        theta, pair = Fraction(1, 4), (INFINITY, Fraction(1, 60))
        assert finiteness_window(*pair, theta) == 241
        real = projection_data.enumerate_large_projections
        monkeypatch.setattr(
            projection_data, "enumerate_large_projections",
            lambda u, v, t: [h for h in real(u, v, t) if h[0].q <= 200])
        assert check_finiteness(family, [pair], theta).violations == 1
        # a cap at 200 hides the dropped hit
        assert check_finiteness(family, [pair], theta,
                                qmax=200).violations == 0

    def test_equal_endpoints(self, family):
        theta, u, v = Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)
        assert u is not v
        assert finiteness_window(u, v, theta) == 0
        assert finiteness_window(INFINITY, INFINITY, theta) == 0
        rep = check_finiteness(family, [(u, v), (INFINITY, INFINITY)], theta)
        assert (rep.samples, rep.violations) == (2, 0)


# -- the axiom checks against Fraction loops --------------------------------


def reference_triangle(sample, branches):
    """check_triangle as it was before the integer kernel; adds the branch
    each quadruple takes to `branches`."""
    rep = AxiomReport("P2")
    for (Y, u, v, w) in sample:
        rep.samples += 1
        duv = reference_proj_dist_frac(Y, u, v)
        dvw = reference_proj_dist_frac(Y, v, w)
        duw = reference_proj_dist_frac(Y, u, w)
        if duw is INFINITE:
            branches.add("uw infinite")
            if duv is INFINITE or dvw is INFINITE:
                continue
            rep.violations += 1
        elif duv is INFINITE or dvw is INFINITE:
            branches.add("side infinite")
            continue
        elif duv + dvw < duw:
            rep.violations += 1
            rep.witnesses.append(
                {"Y": str(Y), "u": str(u), "v": str(v), "w": str(w)})
        else:
            branches.add("finite")
    return rep


def reference_behrstock(sample, theta, branches):
    """check_behrstock as it was before the integer kernel; adds the
    branches it takes to `branches`."""
    rep = AxiomReport("P3")
    best = Fraction(0)
    for (Y, Yp, xi) in sample:
        if Y == Yp:
            continue
        rep.samples += 1
        d1 = reference_proj_dist_frac(Y, Yp.tangency, xi)
        d2 = reference_proj_dist_frac(Yp, Y.tangency, xi)
        if d1 is INFINITE and d2 is INFINITE:
            rep.violations += 1
            continue
        branches.add("d1 infinite" if d1 is INFINITE else
                     "d2 infinite" if d2 is INFINITE else "finite")
        m = d2 if d1 is INFINITE else (d1 if d2 is INFINITE else min(d1, d2))
        if m > best:
            branches.add("new maximum")
            best = m
            rep.witnesses = [{
                "Y": _hb(Y), "Y'": _hb(Yp), "xi": str(xi), "min": float(m)}]
        if theta is not None and m >= theta:
            branches.add("violation")
            rep.violations += 1
    rep.constant = float(best)
    rep.exact_constant = best
    return rep


def _hb(Y):
    return "oo" if Y.q == 0 else f"{Y.p}/{Y.q}"


def branch_samples(seed: int, n: int):
    """Seeded (Y, u, v, w) whose endpoints are often INFINITY, the tangency
    of Y or a repeat, over a pool of horoballs with the cusp among them."""
    rng = random.Random(seed)
    pool = [HOROBALL_INF] + [stern_brocot_horoball(rng, 6) for _ in range(30)]
    out = []
    for _ in range(n):
        Y = rng.choice(pool)
        pts = []
        for _ in range(3):
            r = rng.random()
            pts.append(INFINITY if r < 0.15 else Y.tangency if r < 0.3
                       else rng.choice(pts) if r < 0.4 and pts
                       else random_rational(rng, 12))
        out.append((Y, *pts))
    return out, pool


class TestAxiomKernel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_triangle_matches_fraction_loop(self, family, seed):
        sample, _ = branch_samples(seed, 3000)
        branches = set()
        want = reference_triangle(sample, branches)
        # an infinite d_uw always comes with an infinite side, and a side
        # is infinite with d_uw finite only at v = the tangency of Y
        assert branches == {"uw infinite", "side infinite", "finite"}
        assert check_triangle(family, sample) == want

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("theta", [None, Fraction(1, 2), Fraction(2)])
    def test_behrstock_matches_fraction_loop(self, family, seed, theta):
        quads, pool = branch_samples(seed, 3000)
        rng = random.Random(seed)
        sample = []
        for Y, u, _v, _w in quads:
            Yp = rng.choice(pool)
            sample.append((Y, Yp, Yp.tangency if rng.random() < 0.1 else u))
        branches = set()
        want = reference_behrstock(sample, theta, branches)
        assert {"d1 infinite", "d2 infinite", "finite",
                "new maximum"} <= branches
        assert ("violation" in branches) == (theta == Fraction(1, 2))
        got = check_behrstock(family, sample, theta)
        assert got == want and got.exact_constant == want.exact_constant

    def test_symmetry_matches_fraction_loop(self, family):
        sample = [(Y, u, v) for Y, u, v, _ in branch_samples(4, 3000)[0]]
        assert all(reference_proj_dist_frac(Y, u, v)
                   == reference_proj_dist_frac(Y, v, u) for Y, u, v in sample)
        rep = check_symmetry(family, sample)
        assert (rep.samples, rep.violations) == (len(sample), 0)

    def test_planted_violations_flagged(self):
        # Y = 0/1, u = 1, v = 2, w = 3 are additive: 1/2 + 1/6 = 2/3; a
        # kernel reading d_uw three times too large breaks (P2), and one
        # that drops the numerator's order breaks (P1)
        Y, u, v, w = Horoball(0, 1), Fraction(1), Fraction(2), Fraction(3)
        # distance_terms receives each point as its rational_pair
        U, W = (1, 1), (3, 1)

        class Inflated(FareyFamily):
            def distance_terms(self, Y, a, b):
                n, fa, fb = super().distance_terms(Y, a, b)
                return (3 * n if {a, b} == {U, W} else n), fa, fb

        class Lopsided(FareyFamily):
            def distance_terms(self, Y, a, b):
                n, fa, fb = super().distance_terms(Y, a, b)
                return n + (a < b), fa, fb

        assert check_triangle(FareyFamily(), [(Y, u, v, w)]).violations == 0
        rep = check_triangle(Inflated(), [(Y, u, v, w)])
        assert rep.violations == 1
        assert rep.witnesses == [{"Y": "0/1", "u": "1", "v": "2", "w": "3"}]
        assert check_symmetry(Lopsided(), [(Y, u, v)]).violations == 1

    @pytest.mark.parametrize("theta", [Fraction(1, 4), Fraction(1, 2), 3])
    def test_brute_force_matches_fraction_loop(self, theta):
        rng = random.Random(9)
        pairs = [(random_rational(rng, 20), random_rational(rng, 20))
                 for _ in range(12)]
        pairs += [(INFINITY, Fraction(3, 7)), (Fraction(-5, 2), INFINITY),
                  (Fraction(1, 3), Fraction(1, 3))]
        for u, v in pairs:
            want = []
            if u != v:
                cands = [(1, 0)] + [(p, q) for q in range(1, 41)
                                    for p in range(-160, 161)
                                    if math.gcd(p, q) == 1]
                for Y in (Horoball(p, q) for p, q in cands):
                    d = reference_proj_dist_frac(Y, u, v)
                    if d is not INFINITE and d > theta:
                        want.append((Y, d))
                want.sort(key=lambda hit: (hit[0].q, hit[0].p))
            assert brute_force_large_projections(u, v, theta, 40) == want


class TestEnumeration:
    def test_known_large_projection(self):
        # d^pi_{0/1}(oo, 1/100) = 100
        hits = dict(enumerate_large_projections(INFINITY, Fraction(1, 100),
                                                Fraction(50)))
        assert hits[Horoball(0, 1)] == 100

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10 ** 5, 10 ** 5),
           st.integers(1, 10 ** 5) | st.sampled_from([1, 2, 3]),
           st.sampled_from(THRESHOLDS + (Fraction(2001, 1000),) + BELOW_TWO))
    @example(0, 1, Fraction(1, 4))  # w = 0: the hits are +-s/r, r s < 4
    # 7/10 = [0; 1, 2, 3]: the long expansion [0; 1, 2, 2, 1] adds the
    # convergent 5/7 = (7 - 2)/(10 - 3), a mix with r = s = 1, value 10/7
    @example(7, 10, Fraction(1))
    def test_convergent_hits_match_scan(self, a, b, theta):
        # the Euclid walk with Worley's mixes against the integer scan, at
        # thresholds on both sides of 2, in (q, p) order without repeats
        w = Fraction(a, b)
        hits = enumerate_large_projections(INFINITY, w, theta)
        assert hits == enumerate_inf_rational_scan(w, theta)
        keys = [(Y.q, Y.p) for Y, _ in hits]
        assert keys == sorted(set(keys))

    def test_convergent_hits_exclude_ties(self):
        # d^pi at 0/1 and at 1/1 against (oo, 1/2) is exactly 2: no hit
        # at theta = 2, two hits just below it, where 1/1 is a mix
        w = Fraction(1, 2)
        assert enumerate_large_projections(INFINITY, w, Fraction(2)) == []
        assert enumerate_large_projections(
            INFINITY, w, Fraction(1999, 1000)) == [
                (Horoball(0, 1), 2), (Horoball(1, 1), 2)]

    def test_convergent_hit_at_the_ceiling(self):
        # 3/5 = [0; 1, 1, 2]: a_1 = 1 makes the convergent 1/1, the
        # ceiling, a hit beside 1/2, while the floor 0/1 is at 5/3
        hits = enumerate_large_projections(INFINITY, Fraction(3, 5),
                                           Fraction(2))
        assert hits == [(Horoball(1, 1), Fraction(5, 2)),
                        (Horoball(1, 2), Fraction(5, 2))]
        assert hits == brute_force_large_projections(
            INFINITY, Fraction(3, 5), Fraction(2), qmax=5)

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
                                      (sqrt_of(3), Fraction(693, 200))])
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
    """The certificate pair_maxmin, which gives the pinned theta_hat,
    against the exhaustive scan and the closed form 1 / |p'q - pq'|."""

    def test_small_window_value(self):
        theta_hat, (Y, Yp, _xi) = calibrate_behrstock(qmax=12)
        assert theta_hat == 1 == pair_maxmin(Y, Yp)[0]

    def test_calibration_is_deterministic(self):
        a = calibrate_behrstock(qmax=10)
        b = calibrate_behrstock(qmax=10)
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(-50, 50, max_denominator=200) | st.just(INFINITY),
           st.fractions(-50, 50, max_denominator=200) | st.just(INFINITY),
           sl2z_words())
    def test_pair_maxmin_within_theta_hat(self, u, v, g):
        # the value is 1 / |p'q - pq'| <= theta_hat = 1, attained at the
        # crossing point it returns, and the same for the translated pair
        Y, Yp = Horoball.at(u), Horoball.at(v)
        if Y == Yp:
            return
        val, xi = pair_maxmin(Y, Yp)
        assert val == Fraction(1, abs(Yp.p * Y.q - Y.p * Yp.q)) <= 1
        assert min(reference_proj_dist_frac(Y, v, xi),
                   reference_proj_dist_frac(Yp, u, xi)) == val
        assert pair_maxmin(Y.translate(g), Yp.translate(g))[0] == val


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
