"""Partitions of unity over covers, the ell^1 almost-equivariance defect,
cover combination, and coinduction on finite toy instances.

Weights are exact rationals: margins are the values of the metric the
caller passes, taken exactly as Fractions, and normalized with Fraction
arithmetic, so every simplex invariant and every ell^1 distance is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class UncoveredSampleError(ValueError):
    """A sample point lies in no cover element."""


@dataclass
class NerveMap:
    """Finitely supported probability vectors over cover elements, one per
    sample point; the simplex dimension is bounded by the cover's order."""

    order: int
    vectors: dict = field(default_factory=dict)  # point key -> {elt: weight}

    def check_invariants(self):
        for key, vec in self.vectors.items():
            total = sum(vec.values(), Fraction(0))
            if total != 1:
                raise AssertionError(f"weights at {key} sum to {total}")
            if any(w < 0 for w in vec.values()):
                raise AssertionError(f"negative weight at {key}")
            if len([w for w in vec.values() if w > 0]) > self.order + 1:
                raise AssertionError(f"support exceeds order+1 at {key}")
        return True


def partition_of_unity(membership, metric, samples, order: int,
                       key=str) -> NerveMap:
    """Margin-based partition of unity subordinate to an intensional cover.

    `membership(x)` lists the elements containing x; the margin of x in U
    is the metric distance from x to the nearest sample point outside U (a
    certified-complement snapshot), 1 when U holds the whole sample, and
    weights are margins normalized.  The metric's values are taken exactly
    (`Fraction` of each), so it should return rationals or integers.  Every
    margin is positive, as a metric is on distinct points and a sample
    point at distance 0 from x has the members of x.
    """
    samples = list(samples)
    members = [frozenset(membership(x)) for x in samples]
    nerve = NerveMap(order=order)
    for i, x in enumerate(samples):
        if not members[i]:
            raise UncoveredSampleError(f"sample {key(x)} is uncovered")
        vec = {}
        for e in members[i]:
            outside = (metric(x, y) for y, m in zip(samples, members)
                       if e not in m)
            vec[e] = Fraction(min(outside, default=1))
        total = sum(vec.values())
        nerve.vectors[key(x)] = {e: w / total for e, w in vec.items()}
    return nerve


@dataclass
class DefectReport:
    defect: Fraction
    pairs: int


def ell1(u: dict, v: dict) -> Fraction:
    keys = set(u) | set(v)
    return sum((abs(u.get(k, Fraction(0)) - v.get(k, Fraction(0)))
                for k in keys), Fraction(0))


def defect(nerve: NerveMap, moves, action) -> DefectReport:
    """Exact ell^1 defect of the nerve map.

    `moves` yields (s, key, moved_key) triples with both keys sampled;
    `action(s, element)` is the permutation of cover elements induced by
    the group action (equivariance of the cover)."""
    worst = Fraction(0)
    report = DefectReport(defect=Fraction(0), pairs=0)
    for s, key, moved_key in moves:
        if key not in nerve.vectors or moved_key not in nerve.vectors:
            continue
        pushed = {action(s, e): w for e, w in nerve.vectors[key].items()}
        d = ell1(nerve.vectors[moved_key], pushed)
        report.pairs += 1
        worst = max(worst, d)
    report.defect = worst
    if not 0 <= worst <= 2:
        raise AssertionError("ell^1 defect outside the simplex diameter")
    return report


# -- cover combination ------------------------------------------------------


def combine_covers(thin_membership, thick_membership, classify_fn,
                   samples, n_thin: int, n_thick: int) -> dict:
    """Union of the thin and thick covers on a joint sample.

    Checks: order <= n_thin + n_thick + 1, and every sampled pair is long
    in the family its classification selects."""
    samples = list(samples)
    bound = n_thin + n_thick + 1
    order = 0
    uncovered = []
    order_violations = 0
    for x in samples:
        kind = classify_fn(x)
        thin, thick = list(thin_membership(x)), list(thick_membership(x))
        order = max(order, len(thin) + len(thick))
        if len(thin) + len(thick) > bound:
            order_violations += 1
        if not (thin if kind == "thin" else thick):
            uncovered.append({"x": str(x), "classified": kind})
    return {
        "samples": len(samples),
        "order_measured": order,
        "order_bound": bound,
        "order_violations": order_violations,
        "uncovered": uncovered,
        "ok": order_violations == 0 and not uncovered,
    }


# -- coinduction on finite toy instances -----------------------------------


@dataclass(frozen=True)
class CyclicGroup:
    """Z/n with subgroup dZ/n; elements are ints mod n."""

    n: int
    d: int  # index of the subgroup G0 = {0, d, 2d, ...}

    def __post_init__(self):
        if self.n % self.d != 0:
            raise ValueError("subgroup index must divide the order")

    def elements(self):
        return range(self.n)

    def subgroup(self):
        return range(0, self.n, self.d)

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def in_subgroup(self, a):
        return a % self.d == 0


def _decompose(G: CyclicGroup, reps, x):
    """x = g0 * t with g0 in G0 and t a transversal rep."""
    for t in reps:
        g0 = G.mul(x, G.inv(t))
        if G.in_subgroup(g0):
            return g0, t
    raise ValueError("reps do not form a transversal")


def check_transversal(G: CyclicGroup, reps) -> bool:
    seen = set()
    for x in G.elements():
        _, t = _decompose(G, reps, x)
        seen.add(t)
    return len(reps) == G.n // len(list(G.subgroup())) and len(seen) == len(reps)


def coinduced_S0(G: CyclicGroup, reps, S) -> set:
    """S0 = {t_i s t_j^-1} intersected with G0."""
    out = set()
    for s in S:
        for ti in reps:
            for tj in reps:
                g = G.mul(G.mul(ti, s), G.inv(tj))
                if G.in_subgroup(g):
                    out.add(g)
    return out


class CoinducedMap:
    """The product construction: points of the coinduced set are maps from
    the transversal to the subgroup set Delta0, and f(xi)(t) = f0(xi(t)).

    The target carries the max-over-coordinates metric of the coinduced
    product; the subgroup acts on the Delta0 = G0 toy by translation."""

    def __init__(self, G: CyclicGroup, reps, f0: dict):
        if not check_transversal(G, reps):
            raise ValueError("reps not a transversal")
        self.G = G
        self.reps = tuple(reps)
        self.f0 = f0  # Delta0 element -> prob vector over G0 vertices

    def points(self):
        """All coinduced points: tuples of Delta0 values, one per rep."""
        import itertools
        d0 = list(self.G.subgroup())
        return [dict(zip(self.reps, combo))
                for combo in itertools.product(d0, repeat=len(self.reps))]

    def act_point(self, g, xi: dict) -> dict:
        """(g xi)(t) = g0 xi(t') where t g = g0 t'."""
        out = {}
        for t in self.reps:
            g0, tp = _decompose(self.G, self.reps, self.G.mul(t, g))
            out[t] = self.G.mul(g0, xi[tp])
        return out

    def apply(self, xi: dict) -> dict:
        return {t: dict(self.f0[xi[t]]) for t in self.reps}

    def act_value(self, g, y: dict) -> dict:
        """The coinduced action on the target, vertex-permuting in each
        coordinate: (g y)(t) = g0 . y(t') with t g = g0 t'."""
        out = {}
        for t in self.reps:
            g0, tp = _decompose(self.G, self.reps, self.G.mul(t, g))
            out[t] = {self.G.mul(g0, vtx): w for vtx, w in y[tp].items()}
        return out

    @staticmethod
    def metric(y, yp) -> Fraction:
        return max(ell1(y[t], yp[t]) for t in y)

    def defect_over(self, S) -> Fraction:
        worst = Fraction(0)
        for xi in self.points():
            for s in S:
                lhs = self.apply(self.act_point(s, xi))
                rhs = self.act_value(s, self.apply(xi))
                worst = max(worst, self.metric(lhs, rhs))
        return worst

    def base_defect(self, S0) -> Fraction:
        worst = Fraction(0)
        for x in self.G.subgroup():
            for s0 in S0:
                moved = self.f0[self.G.mul(s0, x)]
                pushed = {self.G.mul(s0, v): w
                          for v, w in self.f0[x].items()}
                worst = max(worst, ell1(moved, pushed))
        return worst


def coinduct_report(G: CyclicGroup, reps, f0: dict, S) -> dict:
    """The lemma's defect transfer on a finite instance: the coinduced
    defect over S is bounded by the base defect over S0."""
    cm = CoinducedMap(G, reps, f0)
    S0 = coinduced_S0(G, reps, S)
    eps0 = cm.base_defect(S0)
    eps = cm.defect_over(S)
    return {
        "S0": sorted(S0),
        "base_defect": str(eps0),
        "coinduced_defect": str(eps),
        "transfer_holds": eps <= eps0,
        "exactly_equivariant_transfers": (eps == 0) if eps0 == 0 else None,
    }
