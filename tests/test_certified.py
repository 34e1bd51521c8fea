"""Certified interval reals: refinement, comparison, and the inverse
trigonometric interval wrappers."""

import math
from fractions import Fraction

import pytest
from mpmath import iv

from horocover.certified import (
    INFINITE,
    CertifiedReal,
    Infinite,
    Undecided,
    fraction_to_iv,
    iv_acos,
    iv_to_fractions,
    surd_iv,
)
from horocover.surd import PHI
from reference import iv_acosh


class TestIntervals:
    def test_fraction_roundtrip(self):
        lo, hi = iv_to_fractions(fraction_to_iv(Fraction(22, 7)))
        assert lo <= Fraction(22, 7) <= hi
        assert hi - lo < Fraction(1, 10**12)

    @pytest.mark.parametrize("fn,ref,x", [
        (iv_acos, math.acos, 0.3),
        (iv_acosh, math.acosh, 2.5),
    ])
    def test_inverse_trig_encloses(self, fn, ref, x):
        lo, hi = iv_to_fractions(fn(iv.mpf(x)))
        assert float(lo) - 1e-12 <= ref(x) <= float(hi) + 1e-12


class TestCertifiedReal:
    def test_exact_value(self):
        c = CertifiedReal(exact=Fraction(5, 3))
        assert c.compare(Fraction(3, 2)) == 1
        assert c.compare(Fraction(5, 3)) == 0
        assert float(c) == pytest.approx(5 / 3)

    def test_refined_comparison(self):
        root2 = CertifiedReal(refine=lambda dps: iv.sqrt(2))
        assert root2.compare(Fraction(3, 2)) == -1
        assert root2.compare(Fraction(7, 5)) == 1

    def test_equal_expressions_undecided(self):
        # an inexact enclosure of 1/3 never separates from the rational
        # 1/3, so it ends Undecided
        third = CertifiedReal(refine=lambda dps: iv.mpf(1) / 3)
        lo, hi = third.interval()
        assert lo < Fraction(1, 3) < hi
        with pytest.raises(Undecided):
            third.compare(Fraction(1, 3))

    def test_of_surd(self):
        c = CertifiedReal(refine=lambda dps: surd_iv(PHI))
        assert c.compare(Fraction(8, 5)) == 1
        assert c.compare(Fraction(13, 8)) == -1


class TestInfinite:
    def test_singleton_identity(self):
        assert Infinite() is INFINITE
        assert INFINITE == INFINITE
        assert INFINITE != Fraction(0)
