"""Acceptance gate: the nine primary criteria, one pass/fail line each.

Every criterion runs at its stated scale and tolerance; the printed line is
the per-criterion verdict, and any failure fails the build."""

import json
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from horocover import cli
from horocover.certified import INFINITE
from horocover.hyperbolic import (
    GEN_S,
    GEN_T,
    IDENTITY,
    Horoball,
    proj_dist_frac,
)
from horocover.projection_complex import (
    ProjComplexGraph,
    build_window,
    check_angle_transfer,
    verify_attraction,
    verify_local_estimate,
)
from horocover.projection_data import (
    FareyFamily,
    check_behrstock,
    check_finiteness,
    check_symmetry,
    check_triangle,
    random_rational,
    sample_triples_rational,
    stern_brocot_horoball,
)
from horocover import flow_cover, thin_cover
from reference import calibrate_behrstock, dmax_brute, penetration_depth


_CAPFD = None


@pytest.fixture(autouse=True)
def _uncaptured(capfd):
    # stash the capture fixture so _verdict can suspend capture at print
    # time; the verdict lines must reach the terminal under default capture
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"\nACCEPTANCE {num} ({name}): {tag}  {detail}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return dict(cli.DEFAULT_CONFIG)


@pytest.fixture(scope="module")
def ladder(cfg):
    return cli._ladder(cfg)


def test_1_exact_axiom_suite(cfg):
    family = FareyFamily()
    rng = random.Random(cfg["seed"])
    t0 = time.time()
    triples = list(sample_triples_rational(rng, 100000, qmax=50))
    p1 = check_symmetry(family, triples)
    quads = [(Y, u, v, w) for (Y, u, v), (_, w, _w)
             in zip(triples, triples[1:] + triples[:1])]
    p2 = check_triangle(family, quads)
    t12 = time.time() - t0
    t0 = time.time()
    pairs = [(u, v) for _, u, v in triples[:1000] if u is not v]
    p4 = check_finiteness(family, pairs, theta=Fraction(1, 4))
    t4 = time.time() - t0
    ok = (p1.violations == 0 and p2.violations == 0 and p4.violations == 0
          and t12 < 60 and t4 < 120)
    _verdict(1, "exact axiom suite", ok,
             f"P1/P2 {t12:.1f}s, P4 {t4:.1f}s on {len(pairs)} pairs")


def _numeric_frame(Y):
    """Numeric Moebius frame sending the ball to the height-1 horoball at
    infinity: w = -1 / (q^2 (z - p/q))."""
    p, q = mpf(Y.p), mpf(Y.q)

    def M(z):
        return -1 / (q * q * (z - p / q))

    return M


def test_2_closed_form_oracle(cfg):
    mp.dps = 40
    rng = random.Random(cfg["seed"] + 1)
    worst_d = worst_depth = 0.0
    n_d = n_depth = 0
    while n_d < 1000 or n_depth < 1000:
        Y = stern_brocot_horoball(rng, 8)
        if Y.q == 0:
            continue
        u, v = random_rational(rng, 60), random_rational(rng, 60)
        d = proj_dist_frac(Y, u, v)
        if d is INFINITE or d == 0:
            continue
        M = _numeric_frame(Y)
        # horocyclic distance at height 1 is the plain numeric difference
        num = abs(M(mpf(u.numerator) / u.denominator)
                  - M(mpf(v.numerator) / v.denominator))
        if n_d < 1000:
            worst_d = max(worst_d, abs(float(d) - float(num)))
            n_d += 1
        if d > 2 and n_depth < 1000:
            # in the numeric frame the geodesic is the semicircle over the
            # image endpoints and the horoball is {height >= 1}: the dip is
            # the log of the numeric peak height
            zu = M(mpf(u.numerator) / u.denominator)
            zv = M(mpf(v.numerator) / v.denominator)
            peak = abs(zu - zv) / 2
            got = float(penetration_depth(Y, u, v))
            from mpmath import log as mplog
            worst_depth = max(worst_depth, abs(got - float(mplog(peak))))
            n_depth += 1
    ok = worst_d < 1e-9 and worst_depth < 1e-6
    _verdict(2, "closed-form oracle", ok,
             f"proj err {worst_d:.2e} on {n_d}, depth err {worst_depth:.2e} "
             f"on {n_depth}")


def test_3_behrstock_constant(cfg):
    # the exhaustive scan of the window q <= axiom_qmax, the certificate
    # that `--calibrate` writes, and the pin
    theta_a, _ = calibrate_behrstock(cfg["axiom_qmax"])
    theta_b = Fraction(cli.calibrate(dict(cfg))["theta_hat"])
    family = FareyFamily()
    rng = random.Random(cfg["seed"] + 2)
    sample = []
    while len(sample) < 1000:
        Y = Horoball.at(random_rational(rng, 200))
        Yp = Horoball.at(random_rational(rng, 200))
        if Y != Yp:
            sample.append((Y, Yp, random_rational(rng, 200)))
    rep = check_behrstock(family, sample, theta=2 * theta_a)
    ok = theta_a == theta_b == Fraction(cfg["theta_hat"]) \
        and rep.violations == 0
    _verdict(3, "Behrstock constant", ok,
             f"theta_hat={theta_a}, max sampled min="
             f"{rep.exact_constant} <= {2 * theta_a}")


def test_4_projection_complex_lemmas(cfg):
    pins = [(Fraction(0), Fraction(6)), (Fraction(2, 3), Fraction(4)),
            (Fraction(17, 72), Fraction(1, 8))]
    ok = True
    detail = []
    for spec, (tpp_pin, tp_pin) in zip(cfg["windows"], pins):
        window = build_window(tuple(cli._hb(a) for a in spec["anchors"]),
                              Fraction(spec["theta"]), Fraction(spec["K"]))
        graph = ProjComplexGraph(window)
        ok = ok and len(graph.vertices) <= 12
        for X in graph.vertices:
            for Z in graph.vertices:
                if X == Z or graph.distance(X, Z) is None:
                    continue
                for Y in graph.vertices:
                    if Y in (X, Z):
                        continue
                    ok = ok and graph.dmax(X, Z, Y) == \
                        dmax_brute(graph, X, Z, Y)
        ok = ok and verify_local_estimate(graph) == tpp_pin
        ok = ok and verify_attraction(graph) == tp_pin
        inst, fails, _ = check_angle_transfer(graph,
                                              Fraction(cfg["theta_P"]))
        ok = ok and fails == 0
        detail.append(f"{spec['anchors'][1]}:{inst}inst")
    _verdict(4, "projection-complex lemmas", ok, " ".join(detail))


def test_5_thin_cover_theorem(cfg, ladder):
    t0 = time.time()
    S = thin_cover.FinitePart.word_ball(cfg["theta_S_radius"])
    rep = thin_cover.verify_thin_theorem(S, ladder, cli._thin_samples(cfg))
    dt = time.time() - t0
    ok = (rep.pairs_tested >= 1000 and rep.long_failures == 0
          and rep.disjointness_failures == 0 and dt < 600)
    _verdict(5, "thin-cover theorem", ok,
             f"{rep.pairs_tested} pairs, {rep.long_failures} long failures, "
             f"{rep.disjointness_failures} overlaps, {dt:.0f}s")


def test_6_thick_cover_theorem(cfg):
    t0 = time.time()
    params = cli._thick_params(cfg)
    S = [IDENTITY, GEN_T, GEN_T.inverse(), GEN_S, GEN_S.inverse()]
    rep = flow_cover.verify_thick_theorem(
        S, params, cfg["thick_word_radius"], cli._thick_xis(cfg),
        pinned_order=cfg["N_hat"], tau_max=Fraction(cfg["tau_budget"]))
    dt = time.time() - t0
    ok = (rep["tau"]["status"] == "ok" and rep["order_within_pin"]
          and rep["longness_ok"] and rep["fsubset_failures"] == 0
          and dt < 600)
    _verdict(6, "thick-cover theorem", ok,
             f"order {rep['order_measured']}/{rep['order_extended']} <= "
             f"{cfg['N_hat']}, tau={rep['tau']['tau_chosen']}, {dt:.0f}s")


def test_7_combined_cover(cfg):
    rep = cli._combined_cover(cfg)
    ok = rep["ok"] and rep["order_measured"] <= rep["order_bound"]
    _verdict(7, "combined cover", ok,
             f"order {rep['order_measured']} <= {rep['order_bound']} "
             f"(N_thin=1), uncovered {len(rep['uncovered'])}")


def test_8_amenability_defect(cfg, tmp_path):
    rc = cli.cmd_amenability(dict(cfg), tmp_path)
    res = json.loads((tmp_path / "amenability.json").read_text())["results"]
    d1 = Fraction(res["defect_radius_1"])
    d3 = Fraction(res["defect_radius_3"])
    ok = (rc == 0 and res["monotone"] and d3 < d1
          and (d1, d3) == (Fraction(1), Fraction(3, 5))
          and res["coinduction_equivariant"]["coinduced_defect"] == "0"
          and res["coinduction_equivariant"]["transfer_holds"]
          and res["coinduction_defective"]["transfer_holds"])
    _verdict(8, "amenability defect", ok,
             f"defect r1={d1} > r3={d3}, coinduction exact")


def test_9_determinism(cfg, tmp_path):
    small = dict(cfg, axiom_triples=2000, finiteness_pairs=50)
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cli.cmd_complex(dict(small), out)
        cli.cmd_amenability(dict(small), out)
        cli.cmd_axioms(dict(small), out)
        runs.append(b"".join(sorted(
            p.read_bytes() for p in out.glob("*.json"))))
    ok = runs[0] == runs[1]
    _verdict(9, "determinism", ok,
             f"{len(list((tmp_path / 'a').glob('*.json')))} reports "
             "byte-identical")
