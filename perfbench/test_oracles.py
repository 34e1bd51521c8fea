"""The benchmark's own checks, on values computed by hand."""

from fractions import Fraction

import oracles

INF = (1, 0)


def test_proj_dist_closed_form():
    # d^pi_0(1/2, -1/2) = |u - v| / (|u| |v|) = 1 / (1/4)
    assert oracles.proj_dist((0, 1), (1, 2), (-1, 2)) == 4
    # at infinity the distance is |u - v|
    assert oracles.proj_dist(INF, (1, 3), (-1, 2)) == Fraction(5, 6)
    # d^pi_{1/2}(oo, 0) = 1 / (q |q*0 - p|) = 1/2
    assert oracles.proj_dist((1, 2), INF, (0, 1)) == Fraction(1, 2)
    assert oracles.proj_dist((0, 1), INF, INF) == 0
    # an endpoint at the tangency of Y gives an infinite distance
    assert oracles.proj_dist((1, 2), (1, 2), (0, 1)) is None
    assert oracles.proj_dist(INF, INF, (0, 1)) is None


def test_behrstock_max():
    # Y = 0, Y' = oo, xi = 1: d^pi_0(oo, 1) = 1 and d^pi_oo(0, 1) = 1
    assert oracles.behrstock_max([((0, 1), INF, (1, 1))]) == 1
    # xi = 2 gives min(1/2, 2) = 1/2; the maximum keeps the larger
    assert oracles.behrstock_max([((0, 1), INF, (2, 1)),
                                  ((0, 1), INF, (1, 1))]) == 1


def test_act_and_count_at_infinity():
    S, T = (0, -1, 1, 0), (1, 1, 0, 1)
    assert oracles.act(S, (0, 1)) == INF
    assert oracles.act(S, (2, 1)) == (-1, 2)
    assert oracles.act(T, INF) == INF
    # S^-1 sends 0 to infinity; T^-1 fixes infinity only
    samples = [(S, (0, 1)), (S, (1, 3)), (T, (0, 1)), ((1, 0, 0, 1), (5, 7))]
    assert oracles.count_at_infinity(samples) == 1
    # g = (1, 0, 2, 1) has g^-1(x) = x / (1 - 2x), infinite at 1/2
    assert oracles.count_at_infinity([((1, 0, 2, 1), (1, 2))]) == 1


def test_cf_sup_phi():
    # PHI = (1 + sqrt 5)/2: the maximum 1 + PHI at 2/1, the limit sqrt 5
    x, y, D, witness = oracles.cf_sup(1, 1, 5, 2)
    assert (x, y, D, witness) == (Fraction(3, 2), Fraction(1, 2), 5, (2, 1))
    _D, _values, limits = oracles.cf_values(1, 1, 5, 2)
    assert limits == [(0, 1)]


def test_cf_sup_large_partial_quotient():
    # (1,0,6,1) PHI = PHI / (6 PHI + 1) = (11 - sqrt 5)/58 = [0; 6, 1, 1, ...]
    # reaches 6 + 1/PHI = 11/2 + sqrt(5)/2 at 0/1
    x, y, D, witness = oracles.cf_sup(11, -1, 5, 58)
    assert (x, y, D, witness) == (Fraction(11, 2), Fraction(1, 2), 5, (0, 1))
    assert not oracles.quadratic_below(x, y, D, Fraction(5437, 1000))


def test_cf_sup_sqrt2():
    # sqrt 2 = [1; 2, 2, ...]: 1/(2 |2 sqrt 2 - 3|) = 3/2 + sqrt 2 at 3/2,
    # and the limit 2 sqrt 2 from (1 + sqrt 2) + (sqrt 2 - 1)
    x, y, D, witness = oracles.cf_sup(0, 1, 2, 1)
    assert (x, y, D, witness) == (Fraction(3, 2), 1, 2, (3, 2))
    assert oracles.cf_values(0, 1, 2, 1)[2] == [(0, 2)]
    assert oracles.quadratic_below(x, y, D, Fraction(5437, 1000))


def test_quadratic_sign():
    # 3 - sqrt 5 > 0 > 2 - sqrt 5, exactly
    assert not oracles.quadratic_below(Fraction(3), Fraction(-1), 5, 0)
    assert oracles.quadratic_below(Fraction(2), Fraction(-1), 5, 0)
