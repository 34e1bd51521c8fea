"""Exact quadratic-surd arithmetic: field operations, ordering, continued
fractions, and the point at infinity."""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from horocover.projection_data import cusp_projections
from horocover.surd import (
    INFINITY,
    MixedFieldError,
    PHI,
    SQRT2,
    Surd,
)
from reference import sqrt_of


def convergents(w, n):
    """The first n convergents (p, q) of w, from the cusp kernel."""
    return [(Y.p, Y.q) for Y, _ in islice(cusp_projections(w), n)]


def surds(d):
    small = st.integers(min_value=-30, max_value=30)
    nonzero = st.integers(min_value=1, max_value=30)
    return st.builds(lambda p, q, r: Surd(p, q, d, r), small, small, nonzero)


class TestField:
    def test_rational_embedding(self):
        x = Surd.from_fraction(Fraction(3, 7))
        assert x.is_rational and x.as_fraction() == Fraction(3, 7)

    def test_sqrt_squares(self):
        assert SQRT2 * SQRT2 == Surd(2)
        assert sqrt_of(12) * sqrt_of(12) == Surd(12)

    def test_phi_minimal_polynomial(self):
        # phi^2 = phi + 1
        assert PHI * PHI == PHI + 1

    def test_inverse(self):
        assert PHI * PHI.inverse() == Surd(1)
        assert (1 / SQRT2) * SQRT2 == Surd(1)

    def test_conjugate_norm_is_rational(self):
        prod = PHI * PHI.conjugate()
        assert prod.is_rational and prod.as_fraction() == Fraction(-1)

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFieldError):
            PHI + SQRT2
        with pytest.raises(MixedFieldError):
            PHI < SQRT2

    @given(surds(2), surds(2), surds(2))
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a

    @given(surds(5))
    def test_sub_add_roundtrip(self, a):
        assert (a - PHI) + PHI == a

    @given(surds(3))
    def test_division_roundtrip(self, a):
        if a != Surd(0):
            assert (Surd(7) / a) * a == Surd(7)


class TestOrder:
    def test_sign_and_floor(self):
        assert SQRT2.sign() == 1 and (-SQRT2).sign() == -1
        assert math.floor(SQRT2) == 1
        assert math.floor(-SQRT2) == -2
        assert math.floor(PHI) == 1

    def test_comparisons_against_rationals(self):
        assert Fraction(7, 5) < SQRT2 < Fraction(3, 2)
        assert Fraction(8, 5) < PHI < Fraction(13, 8)

    @given(surds(2), surds(2))
    def test_trichotomy(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(st.one_of(surds(2), surds(5), surds(0)),
           st.one_of(st.integers(-40, 40),
                     st.fractions(-40, 40, max_denominator=60)))
    def test_rational_operand_matches_surd_path(self, s, x):
        # an int or Fraction is compared by an integer sign test; the
        # reference builds the Surd and subtracts
        ref = Surd.from_fraction(x)
        assert s.compare(x) == (s - ref).sign()
        assert (s == x) == (s == ref)
        assert (s < x, s >= x) == (s < ref, s >= ref)

    @given(surds(5))
    def test_float_consistent_with_compare(self, a):
        if abs(float(a) - float(PHI)) > 1e-9:
            assert (a < PHI) == (float(a) < float(PHI))


class TestContinuedFractions:
    def test_sqrt2_expansion(self):
        terms, _, start = SQRT2.expansion()
        assert terms[:start] == [1] and terms[start:] == [2]

    def test_phi_expansion(self):
        terms, _, start = PHI.expansion()
        # purely periodic: [1; 1, 1, ...]
        assert terms[:start] == [] and terms[start:] == [1]

    def test_phi_convergents_are_fibonacci(self):
        convs = convergents(PHI, 8)
        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        for k, (p, q) in enumerate(convs):
            assert (p, q) == (fib[k + 1], fib[k])

    def test_convergents_alternate_and_converge(self):
        convs = convergents(SQRT2, 12)
        signs = [SQRT2.compare(Fraction(p, q)) for p, q in convs]
        assert all(a * b < 0 for a, b in zip(signs, signs[1:]))
        p, q = convs[-1]
        # error is about 1/(2 q^2)
        assert abs(float(SQRT2) - p / q) < 1 / q**2

    def test_rational_expansion_terminates(self):
        with pytest.raises(ValueError, match="terminates"):
            Surd.from_fraction(Fraction(22, 7)).expansion()


class TestBoundary:
    def test_infinity_singleton(self):
        assert type(INFINITY)() is INFINITY
        assert INFINITY == INFINITY
        assert INFINITY != Fraction(0)
