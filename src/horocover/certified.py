"""Certified real values as refinable intervals with rational endpoints,
and the INFINITE marker.

A CertifiedReal wraps a procedure dps -> enclosing interval (mpmath.iv under
the hood, endpoints exported as exact Fractions).  Comparisons against exact
rationals either decide or, after refining up to a depth limit, report
Undecided.  Exact rational values short-circuit every refinement.

The verifier decides in integers, rationals and Z[sqrt d] and takes only
INFINITE from here, so mpmath is imported inside the functions that build or
evaluate an interval: a process that never evaluates one never loads it.
"""

from __future__ import annotations

from fractions import Fraction

from .surd import Surd


class Undecided(Exception):
    """A comparison could not be decided at the maximum refinement depth."""


DEFAULT_DPS = 30
MAX_DPS = 2000


def _mpf_to_fraction(t) -> Fraction:
    sign, man, exp, bc = t
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise OverflowError("non-finite interval endpoint")
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def iv_to_fractions(x) -> tuple[Fraction, Fraction]:
    a, b = x._mpi_
    return _mpf_to_fraction(a), _mpf_to_fraction(b)


def fraction_to_iv(f: Fraction):
    from mpmath import iv
    return iv.mpf(f.numerator) / f.denominator


def surd_iv(s: Surd):
    """Interval enclosure of a Surd at the current iv precision."""
    from mpmath import iv
    if s.q == 0:
        return iv.mpf(s.p) / s.r
    return (iv.mpf(s.p) + s.q * iv.sqrt(iv.mpf(s.d))) / s.r


def iv_acos(x):
    """acos for interval arguments (mpmath.iv lacks the inverse trig)."""
    from mpmath import iv
    return iv.atan2(iv.sqrt(1 - x * x), x)


class CertifiedReal:
    """An interval-refinable real number."""

    def __init__(self, refine=None, exact: Fraction | None = None):
        """`refine(dps)` must return an iv.mpf enclosure of the value."""
        if refine is None and exact is None:
            raise ValueError("need a refinement procedure or an exact value")
        self._refine = refine
        self.exact = Fraction(exact) if exact is not None else None

    # -- core -------------------------------------------------------------

    def interval(self, dps: int = DEFAULT_DPS) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return self.exact, self.exact
        from mpmath import iv
        old = iv.dps
        try:
            iv.dps = dps
            return iv_to_fractions(self._refine(dps))
        finally:
            iv.dps = old

    def compare(self, other) -> int:
        """-1, 0 or +1 against a rational; raises Undecided when refinement
        cannot separate."""
        other = Fraction(other)
        if self.exact is not None:
            v = self.exact - other
            return (v > 0) - (v < 0)
        dps = DEFAULT_DPS
        while dps <= MAX_DPS:
            lo, hi = self.interval(dps)
            if hi < other:
                return -1
            if lo > other:
                return 1
            if lo == hi == other:
                return 0
            dps *= 2
        raise Undecided(f"cannot separate from {other} at dps {MAX_DPS}")

    def __float__(self):
        if self.exact is not None:
            return float(self.exact)
        lo, hi = self.interval(DEFAULT_DPS)
        return float((lo + hi) / 2)

    def __repr__(self):
        if self.exact is not None:
            return f"CertifiedReal({self.exact})"
        return f"CertifiedReal(~{float(self):.12g})"


class Infinite:
    """Marker for an infinite projection distance or depth."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("horocover-infinite")


INFINITE = Infinite()
