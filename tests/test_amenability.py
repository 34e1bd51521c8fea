"""Partitions of unity, the exact ell^1 defect, cover combination, and
coinduction on the finite cyclic toy."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from horocover.amenability import (
    CoinducedMap,
    CyclicGroup,
    NerveMap,
    UncoveredSampleError,
    check_transversal,
    coinduced_S0,
    coinduct_report,
    combine_covers,
    defect,
    ell1,
    partition_of_unity,
)


def line_metric(a, b):
    return abs(a - b)


def interval_membership(x):
    out = []
    if x < 2:
        out.append("left")
    if x > 1:
        out.append("right")
    return out


class TestPartition:
    def test_weights_are_probability_vectors(self):
        samples = [Fraction(k, 2) for k in range(7)]
        nerve = partition_of_unity(interval_membership, line_metric,
                                   samples, order=1)
        assert nerve.check_invariants()
        for vec in nerve.vectors.values():
            assert sum(vec.values()) == 1

    def test_interior_point_is_pure(self):
        samples = [Fraction(0), Fraction(3, 2), Fraction(3)]
        nerve = partition_of_unity(interval_membership, line_metric,
                                   samples, order=1)
        assert nerve.vectors["0"]["left"] == 1

    def test_margins_are_exact(self):
        # 3/2 lies in both elements, with margins 3/2 + 2^-22 in "left" (to
        # the sample point outside it) and 3/2 in "right": the weights are
        # as exact as the margins, however close they are
        eps, mid = Fraction(1, 2 ** 22), Fraction(3, 2)
        nerve = partition_of_unity(interval_membership, line_metric,
                                   [Fraction(0), mid, 3 + eps], order=1)
        assert nerve.vectors["3/2"] == {"left": (mid + eps) / (3 + eps),
                                        "right": mid / (3 + eps)}

    def test_uncovered_raises(self):
        with pytest.raises(UncoveredSampleError):
            partition_of_unity(lambda x: [], line_metric, [Fraction(0)],
                               order=0)

    def test_order_violation_caught(self):
        nerve = NerveMap(order=0)
        nerve.vectors["x"] = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        with pytest.raises(AssertionError):
            nerve.check_invariants()


vecs = st.dictionaries(st.sampled_from("abcd"),
                       st.fractions(min_value=0, max_value=1), max_size=4)


class TestDefect:
    @given(vecs, vecs)
    def test_ell1_is_a_metric(self, u, v):
        assert ell1(u, v) == ell1(v, u) >= 0
        assert ell1(u, u) == 0

    def test_equivariant_cover_zero_defect(self):
        # translation-invariant membership on a cyclic sample
        n = 6
        samples = list(range(n))
        member = lambda x: [x, (x + 1) % n]
        metric = lambda a, b: min((a - b) % n, (b - a) % n)
        nerve = partition_of_unity(member, metric, samples, order=1)
        moves = [("r", str(x), str((x + 1) % n)) for x in samples]
        rep = defect(nerve, moves, lambda s, e: (e + 1) % n)
        assert rep.defect == 0

    def test_defect_bounded_by_two(self):
        nerve = NerveMap(order=0)
        nerve.vectors["x"] = {"a": Fraction(1)}
        nerve.vectors["y"] = {"b": Fraction(1)}
        rep = defect(nerve, [("s", "x", "y")], lambda s, e: e)
        assert rep.defect == 2


class TestCombination:
    def test_combined_order_bound(self):
        thin = lambda x: ["t0"] if x % 2 == 0 else []
        thick = lambda x: ["k0"] if x % 2 == 1 else []
        rep = combine_covers(thin, thick, lambda x: "thin" if x % 2 == 0
                             else "thick", range(10), 1, 2)
        assert rep["ok"]
        assert rep["order_measured"] <= rep["order_bound"]

    def test_each_sample_evaluated_once(self):
        calls = []

        def thin(x):
            calls.append(("thin", x))
            return ["t0"]

        def thick(x):
            calls.append(("thick", x))
            return []

        rep = combine_covers(thin, thick, lambda x: "thin",
                             (x for x in range(5)), 1, 1)
        assert rep["samples"] == 5 and rep["ok"]
        assert sorted(calls) == sorted(
            [("thin", x) for x in range(5)] + [("thick", x) for x in range(5)])

    def test_uncovered_reported(self):
        rep = combine_covers(lambda x: [], lambda x: [],
                             lambda x: "thin", [0], 1, 1)
        assert not rep["ok"] and rep["uncovered"]


class TestCoinduction:
    def test_transversal(self):
        G = CyclicGroup(4, 2)
        assert check_transversal(G, [0, 1])
        with pytest.raises(ValueError):
            check_transversal(G, [0, 2])

    def test_s0_closure(self):
        G = CyclicGroup(4, 2)
        S0 = coinduced_S0(G, [0, 1], [1, 2, 3])
        assert S0 <= set(G.subgroup())
        assert S0 == {0, 2}

    def test_equivariant_base_transfers_exactly(self):
        G = CyclicGroup(4, 2)
        f0 = {0: {0: Fraction(1)}, 2: {2: Fraction(1)}}
        rep = coinduct_report(G, [0, 1], f0, S=[1, 2, 3])
        assert rep["transfer_holds"]
        assert rep["coinduced_defect"] == "0"
        assert rep["exactly_equivariant_transfers"]

    def test_defective_base_bounds_coinduced(self):
        G = CyclicGroup(4, 2)
        f0 = {0: {0: Fraction(3, 4), 2: Fraction(1, 4)},
              2: {2: Fraction(1)}}
        rep = coinduct_report(G, [0, 1], f0, S=[1, 2, 3])
        assert rep["transfer_holds"]
        assert Fraction(rep["coinduced_defect"]) <= \
            Fraction(rep["base_defect"])

    def test_point_action_is_action(self):
        G = CyclicGroup(4, 2)
        cm = CoinducedMap(G, [0, 1],
                          {0: {0: Fraction(1)}, 2: {2: Fraction(1)}})
        for xi in cm.points():
            moved = cm.act_point(1, cm.act_point(1, xi))
            assert moved == cm.act_point(2, xi)
