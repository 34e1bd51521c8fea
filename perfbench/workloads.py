"""The benchmark's workloads: inputs from a seed, the verification calls of
the matching horocover command, and checks of its outputs.

Each workload builds its inputs with `setup(seed)` following the recipe of
its command, runs `verify(inputs)` through the public functions that command
calls, and `check(inputs, outputs)` returns the list of disagreements with
the computations of `oracles`.  horocover must be importable.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from horocover import flow_cover, hyperbolic, projection_data, thin_cover
from horocover.surd import INFINITY, PHI, SQRT2

import oracles


def _pt(x):
    """A rational boundary point or a horoball as an integer pair."""
    if x is INFINITY:
        return (1, 0)
    if isinstance(x, hyperbolic.Horoball):
        return (x.p, x.q)
    return (x.numerator, x.denominator)


def _boundary(pt):
    return INFINITY if pt[1] == 0 else Fraction(*pt)


def _divisor_sum(x: int) -> int:
    """sum_{n <= x} floor(x / n), by the hyperbola method."""
    r = math.isqrt(x)
    return 2 * sum(x // i for i in range(1, r + 1)) - r * r


class Axioms:
    """(P1)/(P2) over seeded rational triples, (P4) fast enumeration against
    brute force, and (P3) on the pinned slice, as `horocover axioms`."""

    TRIPLES = 20000
    QMAX = 50                   # denominators of the triples
    P4_THETA = Fraction(1, 4)
    P4_QMAX = 200               # brute-force window
    P3_THETA = Fraction(2)      # 2 * theta_hat
    # (P4) pairs are taken in seeded order while they fit this much work,
    # counted in steps of the two-rational scan (about 4.5 us each on a
    # 2-core Python 3.11 machine).  One pair costs from a few thousand to
    # 400k steps, so a fixed number of pairs would make the round's length
    # depend on the seed far more than on the program.
    P4_BUDGET = 1_200_000

    def _p4_cost(self, u, v) -> int:
        if u == v:
            return 0  # both enumerations return at once
        finite = [w for w in (u, v) if w is not INFINITY]
        scan = 0
        if len(finite) == 2:
            # n1 * n2 * theta < |ad - bc| over n1, n2 >= 1
            L = abs(u.numerator * v.denominator - v.numerator * u.denominator)
            scan = _divisor_sum(int(L / self.P4_THETA) - 1)
        B = (abs(u - v) if len(finite) == 2 else 1) / self.P4_THETA
        root = math.isqrt(math.ceil(B)) + 1
        candidates = 0
        for q in range(1, self.P4_QMAX + 1):
            pad = root if len(finite) == 2 else math.ceil(B / q) + 1
            spans = sorted((math.floor(w * q) - pad, math.floor(w * q) + pad + 2)
                           for w in finite)
            covered = spans[0][0]
            for lo, hi in spans:
                candidates += max(0, hi - max(lo, covered))
                covered = max(covered, hi)
        # a brute-force candidate costs about four scan steps
        return scan + 4 * candidates + 800

    def setup(self, seed):
        rng = random.Random(seed)
        triples = list(projection_data.sample_triples_rational(
            rng, self.TRIPLES, self.QMAX))
        quads = [(Y, u, v, w) for (Y, u, v), (_, w, _w2)
                 in zip(triples, triples[1:] + triples[:1])]
        pairs, left = [], self.P4_BUDGET
        for _, u, v in triples:
            if left < self.P4_BUDGET // 100:
                break
            if u is v:
                continue
            cost = self._p4_cost(u, v)
            if cost <= left:
                pairs.append((u, v))
                left -= cost
        p3 = [(Y, Yp, xi) for (Y, _u, xi), (Yp, _u2, _v2)
              in zip(triples[:200], triples[200:400]) if Y != Yp]
        return {"triples": triples, "quads": quads, "pairs": pairs, "p3": p3}

    def verify(self, inputs):
        fam = projection_data.FareyFamily()
        return {
            "P1": projection_data.check_symmetry(fam, inputs["triples"]),
            "P2": projection_data.check_triangle(fam, inputs["quads"]),
            "P4": projection_data.check_finiteness(
                fam, inputs["pairs"], theta=self.P4_THETA,
                qmax=self.P4_QMAX),
            "P3": projection_data.check_behrstock(fam, inputs["p3"],
                                                  theta=self.P3_THETA),
        }

    def check(self, inputs, outputs):
        problems = []
        expected = {"P1": len(inputs["triples"]), "P2": len(inputs["quads"]),
                    "P4": len(inputs["pairs"]),
                    "P3": sum(1 for Y, Yp, _ in inputs["p3"]
                              if _pt(Y) != _pt(Yp))}
        for axiom, rep in outputs.items():
            if rep.violations:
                problems.append(f"{axiom}: {rep.violations} violations")
            if rep.samples != expected[axiom]:
                problems.append(f"{axiom}: {rep.samples} samples, "
                                f"expected {expected[axiom]}")
        best = oracles.behrstock_max(
            [(_pt(Y), _pt(Yp), _pt(xi)) for Y, Yp, xi in inputs["p3"]])
        got = outputs["P3"].exact_constant
        if got != best or best > 1:
            problems.append(f"P3 maximum {got}, recomputed {best}")
        return problems

    def count(self, inputs, outputs):
        return (sum(rep.samples for rep in outputs.values()),
                sum(rep.violations for rep in outputs.values()))

    def report(self, outputs):
        return {axiom: rep.to_dict() for axiom, rep in outputs.items()}


class Thin:
    """The thin-cover theorem on seeded rational pairs, as `horocover thin`."""

    PAIRS = 120
    QMAX = 10 ** 4
    S_RADIUS = 3
    THETA = Fraction(2)
    THETA_P = Fraction(6)
    PROBES = 4  # seeded (g, xi, h, i) for the equivariance of select_Yi

    def setup(self, seed):
        rng = random.Random(seed)
        S = thin_cover.FinitePart.word_ball(self.S_RADIUS)
        ladder = thin_cover.ThetaLadder(
            self.THETA, thin_cover.theta_S(S, self.THETA_P), self.THETA_P)
        els = hyperbolic.word_ball(2)
        samples = []
        while len(samples) < self.PAIRS:
            q = rng.randint(1, self.QMAX)
            p = rng.randint(-2 * q, 2 * q)
            if math.gcd(p, q) != 1:
                continue
            samples.append((rng.choice(els), Fraction(p, q)))
        movers = hyperbolic.word_ball(3)
        probes = [samples[rng.randrange(len(samples))]
                  + (rng.choice(movers), rng.choice((1, 2)))
                  for _ in range(self.PROBES)]
        return {"S": S, "ladder": ladder, "samples": samples,
                "probes": probes}

    def verify(self, inputs):
        return thin_cover.verify_thin_theorem(inputs["S"], inputs["ladder"],
                                              inputs["samples"])

    def check(self, inputs, outputs):
        problems = []
        samples = inputs["samples"]
        finite = len(samples) - oracles.count_at_infinity(
            [((g.a, g.b, g.c, g.d), _pt(xi)) for g, xi in samples])
        if outputs.pairs_tested != finite:
            problems.append(f"{outputs.pairs_tested} pairs tested, "
                            f"{finite} with g^-1 xi finite")
        if outputs.long_failures or outputs.disjointness_failures:
            problems.append(f"{outputs.long_failures} long and "
                            f"{outputs.disjointness_failures} disjointness "
                            "failures")
        ladder = inputs["ladder"]
        for g, xi, h, i in inputs["probes"]:
            Y = thin_cover.select_Yi(g, xi, i, ladder)
            hxi = _boundary(oracles.act((h.a, h.b, h.c, h.d), _pt(xi)))
            hY = thin_cover.select_Yi(h * g, hxi, i, ladder)
            want = None if Y is None else oracles.act((h.a, h.b, h.c, h.d),
                                                      _pt(Y))
            if (None if hY is None else _pt(hY)) != want:
                problems.append(f"select_Yi not equivariant at g={g}, "
                                f"xi={xi}, h={h}, i={i}")
        return problems

    def count(self, inputs, outputs):
        return (len(inputs["samples"]),
                outputs.long_failures + outputs.disjointness_failures)

    def report(self, outputs):
        return outputs.to_dict()


class Thick:
    """The thick-cover theorem at word radius 1, as `horocover thick`, on
    PHI, SQRT2, a seeded translate and a seeded direction with a large
    partial quotient, which classifies thin."""

    RADIUS = 1
    PARAMS = {"Theta": Fraction(5437, 1000), "rho": Fraction(2),
              "beta": Fraction(3), "t_max": Fraction(12)}
    TAU_BUDGET = Fraction(16)
    N_HAT = 2

    def setup(self, seed):
        rng = random.Random(seed)
        params = flow_cover.ThickParams(**self.PARAMS)
        xis = [PHI, SQRT2]
        pool = hyperbolic.word_ball(4)
        while len(xis) < 3:
            g = pool[rng.randrange(len(pool))]
            y = g.apply_boundary(rng.choice([PHI, SQRT2]))
            if all(y != z for z in xis):
                xis.append(y)
        c = rng.randint(6, 40)
        xis.append(hyperbolic.GroupElement(1, 0, c, 1).apply_boundary(PHI))
        return {"params": params, "S": hyperbolic.word_ball(1), "xis": xis}

    def verify(self, inputs):
        return flow_cover.verify_thick_theorem(
            inputs["S"], inputs["params"], self.RADIUS, inputs["xis"],
            pinned_order=self.N_HAT, tau_max=self.TAU_BUDGET)

    def _thick(self, inputs) -> int:
        """Directions whose continued-fraction supremum is below Theta."""
        Theta = self.PARAMS["Theta"]
        return sum(1 for w in inputs["xis"] if oracles.quadratic_below(
            *oracles.cf_sup(w.p, w.q, w.d, w.r)[:3], Theta))

    def check(self, inputs, outputs):
        problems = []
        charts = outputs["charts"] + len(outputs["rejected_charts"])
        thick = self._thick(inputs)
        if charts != thick:
            problems.append(f"{charts} charts, {thick} directions below "
                            "Theta")
        for key, want in (("undecided_xi", 0), ("longness_ok", True),
                          ("order_within_pin", True), ("fsubset_failures", 0),
                          ("extension_restricts", True)):
            if outputs[key] != want:
                problems.append(f"{key} is {outputs[key]}")
        if outputs["tau"]["status"] != "ok":
            problems.append(f"tau status {outputs['tau']['status']}")
        return problems

    def count(self, inputs, outputs):
        starts = len(hyperbolic.word_ball(max(1, self.RADIUS - 2)))
        tau = outputs["tau"]
        tau_failures = (0 if tau["status"] == "ok"
                        else tau["attempts"][-1]["failures"])
        return (len(inputs["xis"]) + starts * self._thick(inputs),
                outputs["undecided_xi"] + tau_failures)

    def report(self, outputs):
        return outputs


WORKLOADS = {"axioms": Axioms, "thin": Thin, "thick": Thick}


def digest(report) -> str:
    blob = json.dumps(report, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()
