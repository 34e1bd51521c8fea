"""Command-line harness: axioms, complex, thin, thick, amenability, render.

A single flat JSON config pins every constant the runs consume; the
`--calibrate` flag re-derives the pins and writes them back: the Behrstock
constant from the exact certificate `pair_maxmin`, the window constants by
exhaustive measurement on each window.  Reports are deterministic JSON
files keyed by a config hash, one per command, and exit codes are 0 exactly
when no violations or hard errors occurred (undecided/boundary-uncertain
counts are reported but never fail a run).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .hyperbolic import GEN_S, HOROBALL_INF, Horoball, IDENTITY, word_ball
from .projection_complex import (
    ProjComplexGraph,
    build_window,
    check_angle_transfer,
    verify_attraction,
    verify_local_estimate,
)
from .projection_data import (
    FareyFamily,
    check_behrstock,
    check_finiteness,
    check_symmetry,
    check_triangle,
    pair_maxmin,
    sample_triples_rational,
)
from .surd import PHI, SQRT2
from . import amenability, flow_cover, thin_cover

DEFAULT_CONFIG = {
    "seed": 7,
    "theta_hat": "1",
    "theta": "2",
    "theta_P": "6",
    "theta_S_radius": 3,
    "axiom_triples": 100000,
    "axiom_qmax": 50,
    "finiteness_pairs": 1000,
    "windows": [
        {"anchors": ["oo", "0/1"], "theta": "1/2", "K": "5"},
        {"anchors": ["oo", "2/5"], "theta": "1", "K": "2"},
        {"anchors": ["oo", "73/665"], "theta": "4", "K": "3"},
    ],
    "window_pins": None,
    "thin_samples": 1000,
    "thin_qmax": 10000,
    "thick_Theta": "5437/1000",
    "thick_rho": "2",
    "thick_beta": "3",
    "thick_t_max": "12",
    "thick_word_radius": 5,
    "thick_translates": 20,
    "tau_budget": "16",
    "N_hat": 2,
}

_THICK_POOL_RADIUS = 4  # _thick_xis translates PHI and SQRT2 by this ball


def _hb(name: str) -> Horoball:
    if name == "oo":
        return Horoball(1, 0)
    p, q = name.split("/")
    return Horoball(int(p), int(q))


def load_config(path: str | None) -> dict:
    """DEFAULT_CONFIG overlaid with the JSON object at path; a key the
    defaults lack raises ValueError, as no run would read it, and so does a
    `thick_translates` above the distinct points `_thick_xis` can draw."""
    cfg = dict(DEFAULT_CONFIG)
    if path:
        overlay = json.loads(Path(path).read_text())
        unknown = sorted(set(overlay) - set(DEFAULT_CONFIG))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(overlay)
    limit = len({g.apply_boundary(xi) for g in word_ball(_THICK_POOL_RADIUS)
                 for xi in (PHI, SQRT2)}) - 2
    if cfg["thick_translates"] > limit:
        raise ValueError(
            f"thick_translates is at most {limit}, the distinct translates "
            f"of PHI and SQRT2 by word_ball({_THICK_POOL_RADIUS}) besides "
            "themselves")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_report(out: Path, command: str, cfg: dict, results: dict) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "config_hash": config_hash(cfg),
        "version": __version__,
        "results": results,
    }
    path = out / f"{command}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1,
                               default=str) + "\n")
    return path


def _graphs(cfg: dict):
    for spec in cfg["windows"]:
        anchors = tuple(_hb(a) for a in spec["anchors"])
        window = build_window(anchors, Fraction(spec["theta"]),
                              Fraction(spec["K"]))
        yield spec, ProjComplexGraph(window)


# -- commands ---------------------------------------------------------------


def cmd_axioms(cfg: dict, out: Path) -> int:
    rng = random.Random(cfg["seed"])
    family = FareyFamily()
    triples = list(sample_triples_rational(rng, cfg["axiom_triples"],
                                           cfg["axiom_qmax"]))
    p1 = check_symmetry(family, triples)
    quads = [(Y, u, v, w) for (Y, u, v), (_, w, _w2)
             in zip(triples, triples[1:] + triples[:1])]
    p2 = check_triangle(family, quads)
    pairs = [(u, v) for _, u, v in triples[:cfg["finiteness_pairs"]]
             if u is not v]
    p4 = check_finiteness(family, pairs, theta=Fraction(1, 4))
    p3_triples = [(Y, Yp, xi) for (Y, _u, xi), (Yp, _u2, _v2)
                  in zip(triples[:200], triples[200:400]) if Y != Yp]
    p3 = check_behrstock(family, p3_triples,
                         theta=2 * Fraction(cfg["theta_hat"]))
    results = {"P1": p1.to_dict(), "P2": p2.to_dict(), "P3": p3.to_dict(),
               "P4": p4.to_dict()}
    write_report(out, "axioms", cfg, results)
    bad = sum(r["violations"] for r in results.values())
    return 0 if bad == 0 else 1


def cmd_complex(cfg: dict, out: Path) -> int:
    results = {"windows": []}
    violations = 0
    pins = cfg.get("window_pins")
    for idx, (spec, graph) in enumerate(_graphs(cfg)):
        tpp = verify_local_estimate(graph)
        tp = verify_attraction(graph)
        inst, fails, _wit = check_angle_transfer(graph, tp)
        # transfer failures below the global constant are absorbed into
        # theta_P by calibration; the identity must be clean at the
        # calibrated global value
        g_inst, g_fails, _gw = check_angle_transfer(graph,
                                                    Fraction(cfg["theta_P"]))
        entry = {
            "anchors": spec["anchors"],
            "vertices": len(graph.vertices),
            "connected": graph.connected(),
            "theta_P_prime": str(tpp),
            "theta_P": str(tp),
            "transfer_instances": inst,
            "transfer_failures": fails,
            "transfer_instances_at_global": g_inst,
            "transfer_failures_at_global": g_fails,
        }
        if g_fails:
            violations += g_fails
        if pins:
            pin = pins[idx]
            entry["pins_match"] = (pin["theta_P_prime"] == str(tpp)
                                   and pin["theta_P"] == str(tp)
                                   and pin["transfer_failures"] == fails)
            if not entry["pins_match"]:
                violations += 1
        results["windows"].append(entry)
    write_report(out, "complex", cfg, results)
    return 0 if violations == 0 else 1


def _ladder(cfg: dict) -> thin_cover.ThetaLadder:
    S = thin_cover.FinitePart.word_ball(cfg["theta_S_radius"])
    ts = thin_cover.theta_S(S, Fraction(cfg["theta_P"]))
    return thin_cover.ThetaLadder(Fraction(cfg["theta"]), ts,
                                  Fraction(cfg["theta_P"]))


def _thin_samples(cfg: dict):
    rng = random.Random(cfg["seed"])
    els = word_ball(2)
    samples = []
    while len(samples) < cfg["thin_samples"]:
        q = rng.randint(1, cfg["thin_qmax"])
        p = rng.randint(-2 * q, 2 * q)
        if math.gcd(p, q) != 1:
            continue
        samples.append((rng.choice(els), Fraction(p, q)))
    return samples


def cmd_thin(cfg: dict, out: Path) -> int:
    ladder = _ladder(cfg)
    S = thin_cover.FinitePart.word_ball(cfg["theta_S_radius"])
    rep = thin_cover.verify_thin_theorem(S, ladder, _thin_samples(cfg))
    write_report(out, "thin", cfg, rep.to_dict())
    return 0 if rep.long_failures == 0 and rep.disjointness_failures == 0 \
        else 1


def _thick_params(cfg: dict) -> flow_cover.ThickParams:
    return flow_cover.ThickParams(Theta=Fraction(cfg["thick_Theta"]),
                                  rho=Fraction(cfg["thick_rho"]),
                                  beta=Fraction(cfg["thick_beta"]),
                                  t_max=Fraction(cfg["thick_t_max"]))


def _thick_xis(cfg: dict):
    rng = random.Random(cfg["seed"])
    xis = [PHI, SQRT2]
    pool = word_ball(_THICK_POOL_RADIUS)
    while len(xis) < 2 + cfg["thick_translates"]:
        g = pool[rng.randrange(len(pool))]
        y = g.apply_boundary(rng.choice([PHI, SQRT2]))
        if all(y != z for z in xis):
            xis.append(y)
    return xis


def cmd_thick(cfg: dict, out: Path) -> int:
    params = _thick_params(cfg)
    S = word_ball(1)
    rep = flow_cover.verify_thick_theorem(
        S, params, cfg["thick_word_radius"], _thick_xis(cfg),
        pinned_order=cfg["N_hat"], tau_max=Fraction(cfg["tau_budget"]))
    write_report(out, "thick", cfg, rep)
    ok = (rep["tau"]["status"] == "ok" and rep["longness_ok"]
          and rep["fsubset_failures"] == 0
          and rep.get("order_within_pin", True))
    return 0 if ok else 1


def cmd_amenability(cfg: dict, out: Path) -> int:
    results = {}
    violations = 0

    # coinduction toy: Z/4 over Z/2, exhaustive
    G = amenability.CyclicGroup(4, 2)
    f0_eq = {0: {0: Fraction(1)}, 2: {2: Fraction(1)}}
    f0_def = {0: {0: Fraction(3, 4), 2: Fraction(1, 4)},
              2: {2: Fraction(1)}}
    results["coinduction_equivariant"] = amenability.coinduct_report(
        G, [0, 1], f0_eq, S=[1, 2, 3])
    results["coinduction_defective"] = amenability.coinduct_report(
        G, [0, 1], f0_def, S=[1, 2, 3])
    for key in ("coinduction_equivariant", "coinduction_defective"):
        if not results[key]["transfer_holds"]:
            violations += 1

    # thin-cover nerve defect at two longness radii on a pinned sample
    defects = {}
    for radius in (1, 3):
        S = thin_cover.FinitePart.word_ball(radius)
        ts = thin_cover.theta_S(S, Fraction(cfg["theta_P"]))
        ladder = thin_cover.ThetaLadder(Fraction(cfg["theta"]), ts,
                                        Fraction(cfg["theta_P"]))
        defects[radius] = _thin_nerve_defect(ladder)
    results["defect_radius_1"] = str(defects[1])
    results["defect_radius_3"] = str(defects[3])
    results["monotone"] = defects[3] <= defects[1]
    if not results["monotone"]:
        violations += 1

    # combined cover order bound on a joint sample
    results["combined"] = _combined_cover(cfg)
    if not results["combined"]["ok"]:
        violations += 1

    write_report(out, "amenability", cfg, results)
    return 0 if violations == 0 else 1


_DEFECT_KS = (600, 660, 718, 800, 900, 1050, 1200, 1600, 2400)


def _thin_nerve_defect(ladder) -> Fraction:
    """Nerve defect of the boundary-only thin nerve map on the pinned
    sample {1/2 + 1/k} plus its exact inversion images.

    The boundary-only map f(xi) uses the selection at the identity chart,
    which the inversion genuinely fails to intertwine inside narrow
    threshold windows around the ladder values.  A larger longness radius
    (that of the S the ladder is built from) enlarges the ladder and moves
    those windows off the fixed sample, so the measured defect must not
    increase with the radius."""
    xs = [Fraction(1, 2) + Fraction(1, k) for k in _DEFECT_KS]
    sample = xs + [Fraction(-1) / x for x in xs]
    nerve = amenability.partition_of_unity(
        lambda xi: thin_cover.base_members(xi, ladder),
        lambda a, b: abs(a - b), sample, order=1, key=str)
    nerve.check_invariants()

    def action(s, elt):
        Y, i = elt
        return (Y.translate(GEN_S), i)

    moves = [("S", str(xi), str(Fraction(-1) / xi)) for xi in xs]
    rep = amenability.defect(nerve, moves, action)
    return rep.defect


def _combined_cover(cfg: dict) -> dict:
    """Joint thin/thick sample: rationals are thin, pinned surds thick."""
    ladder = _ladder(cfg)
    params = _thick_params(cfg)
    rng = random.Random(cfg["seed"])
    thin_xis = []
    while len(thin_xis) < 20:
        q = rng.randint(1, 100)
        p = rng.randint(-q, q)
        if math.gcd(p, q) == 1:
            thin_xis.append(Fraction(p, q))
    thick_xis = [PHI, SQRT2]
    sample = flow_cover.sample_coarse_flow(params, 2, thick_xis)
    cover = flow_cover.build_long_thin_cover(sample, params.beta)
    tau = Fraction(cfg["thick_beta"])

    def classify_fn(xi):
        res = flow_cover.classify(IDENTITY, xi, params.Theta)
        return "thick" if isinstance(res, flow_cover.ThickCertificate) \
            else "thin"

    def thin_membership(xi):
        return thin_cover.base_members(xi, ladder) \
            if isinstance(xi, Fraction) else []

    def thick_membership(xi):
        if isinstance(xi, Fraction):
            return []
        got = flow_cover._s_long_element(IDENTITY, xi, [IDENTITY], tau,
                                         cover, params)
        return [] if got is None else [got]

    return amenability.combine_covers(
        thin_membership, thick_membership, classify_fn,
        thin_xis + thick_xis, n_thin=1, n_thick=cfg["N_hat"])


# -- calibration ------------------------------------------------------------


def calibrate(cfg: dict) -> dict:
    # each pair's sup-min is 1 / |p'q - pq'| <= 1; Farey neighbours attain 1
    theta_hat, _xi = pair_maxmin(HOROBALL_INF, Horoball(0, 1))
    cfg["theta_hat"] = str(theta_hat)
    cfg["theta"] = str(2 * theta_hat)
    pins = []
    tP = Fraction(0)
    for spec, graph in _graphs(cfg):
        w_tpp = verify_local_estimate(graph)
        w_tp = verify_attraction(graph)
        _inst, fails, wits = check_angle_transfer(graph, w_tp)
        worst_fail = Fraction(0)
        if fails:
            worst_fail = max(max(w[4], w[5]) for w in wits)
        pins.append({"theta_P_prime": str(w_tpp), "theta_P": str(w_tp),
                     "transfer_failures": fails})
        tP = max(tP, w_tp, worst_fail)
    cfg["window_pins"] = pins
    cfg["theta_P"] = str(tP)
    return cfg


# -- rendering --------------------------------------------------------------


def cmd_render(cfg: dict, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "ford.svg"
    path.write_text(render_ford_scene())
    return 0


# the picture's size in pixels, and the largest denominator of its circles
_SVG_WIDTH, _SVG_HEIGHT, _SVG_QMAX = 800, 420, 12


def render_ford_scene() -> str:
    """Upper half-plane strip [-1, 2] with Ford circles, the horoball at
    infinity, and the witness rays toward the pinned surds."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT

    def X(x):
        return (x + 1.0) / 3.0 * width

    def Y(y):
        return height - y / 1.4 * height

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="0" y1="{Y(0)}" x2="{width}" y2="{Y(0)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="0" y1="{Y(1)}" x2="{width}" y2="{Y(1)}" '
        'stroke="#88a" stroke-dasharray="6 4"/>',
    ]
    seen = set()
    for q in range(1, _SVG_QMAX + 1):
        for p in range(-q - 1, 2 * q + 2):
            if math.gcd(p, q) != 1:
                continue
            x, r = p / q, 1 / (2 * q * q)
            if (p, q) in seen or x < -1.2 or x > 2.2:
                continue
            seen.add((p, q))
            parts.append(
                f'<circle cx="{X(x):.2f}" cy="{Y(r):.2f}" '
                f'r="{r / 3.0 * width:.2f}" fill="none" stroke="#c33" '
                'stroke-width="0.8"/>')
    for xi, color in ((PHI, "#393"), (SQRT2, "#339")):
        f = float(xi)
        c = (f * f - 1) / (2 * f)
        r = abs(f - c)
        # geodesic from i toward xi: arc of the circle |z - c| = r
        steps = 60
        pts = []
        th0 = math.atan2(1.0, -c)
        th1 = 0.02
        for k in range(steps + 1):
            th = th0 + (th1 - th0) * k / steps
            pts.append(f"{X(c + r * math.cos(th)):.2f},"
                       f"{Y(r * math.sin(th)):.2f}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- entry point ------------------------------------------------------------


COMMANDS = {
    "axioms": cmd_axioms,
    "complex": cmd_complex,
    "thin": cmd_thin,
    "thick": cmd_thick,
    "amenability": cmd_amenability,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horocover",
        description="verification harness for the horoball cover machinery")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--calibrate", action="store_true",
                        help="re-derive pinned constants before running and "
                             "write them back to the --config file")
    args = parser.parse_args(argv)
    if args.calibrate and not args.config:
        parser.error("--calibrate needs --config, the file it writes")

    try:
        cfg = load_config(args.config)
    except ValueError as err:
        parser.error(f"config rejected: {err}")
    if args.calibrate:
        # written before --seed applies: calibration reads no seed
        cfg = calibrate(cfg)
        Path(args.config).write_text(
            json.dumps(cfg, sort_keys=True, indent=1) + "\n")
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    return COMMANDS[args.command](cfg, out)


if __name__ == "__main__":
    sys.exit(main())
