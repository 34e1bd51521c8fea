"""Per-layer spans, recorded from outside the program.

A traced function is replaced in its defining module and in every horocover
module that binds it by name; a traced method is replaced on its class.
Each call becomes a span: its duration, minus the duration of the traced
calls it makes, is its self time.  Spans stay in memory as per-layer sums.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, attribute): a function of the module, or "Class.method".  The
# layer is named by the module and the function, as "certified.compare".
TRACED = [
    ("hyperbolic", "proj_dist_frac"),
    ("hyperbolic", "projection_distance"),
    ("hyperbolic", "geodesic_point"),
    ("hyperbolic", "locate"),
    ("certified", "CertifiedReal.compare"),
    ("certified", "CertifiedReal.interval"),
    ("projection_data", "check_symmetry"),
    ("projection_data", "check_triangle"),
    ("projection_data", "check_finiteness"),
    ("projection_data", "enumerate_large_projections"),
    ("projection_data", "brute_force_large_projections"),
    ("projection_data", "enumerate_large_projections_windowed"),
    ("projection_data", "sup_projection"),
    ("thin_cover", "theta_S"),
    ("thin_cover", "select_Yi"),
    ("thin_cover", "membership_U"),
    ("thin_cover", "find_long_member"),
    ("thin_cover", "is_theta5_thin"),
    ("flow_cover", "classify"),
    ("flow_cover", "sample_coarse_flow"),
    ("flow_cover", "orbit_points_near"),
    ("flow_cover", "flow_point"),
    ("flow_cover", "build_long_thin_cover"),
    ("flow_cover", "choose_tau"),
    ("flow_cover", "fsubset_check"),
]

# layers whose per-call latencies are kept for percentiles
LATENCIES = {"projection_data.enumerate_large_projections",
             "thin_cover.find_long_member", "flow_cover.orbit_points_near"}

# dps at or below which a CertifiedReal evaluation is not an escalation
BASE_DPS = 30


class Layer:
    __slots__ = ("calls", "total_s", "self_s", "depth", "latencies",
                 "uncertain", "undecided", "escalated")

    def __init__(self, keep_latencies: bool):
        self.latencies = [] if keep_latencies else None
        self.clear()

    def clear(self):
        self.calls = 0
        self.total_s = 0.0  # outermost calls only, so recursion counts once
        self.self_s = 0.0
        self.depth = 0
        if self.latencies is not None:
            self.latencies = []
        self.uncertain = 0
        self.undecided = 0
        self.escalated = 0

    def summary(self) -> dict:
        out = {"calls": self.calls, "total_s": self.total_s,
               "self_s": self.self_s, "uncertain": self.uncertain,
               "undecided": self.undecided, "escalated": self.escalated}
        if self.latencies is not None:
            lat = self.latencies or [0.0]
            out["p50_ms"] = 1000 * statistics.median(lat)
            out["p95_ms"] = 1000 * (statistics.quantiles(lat, n=20)[-1]
                                    if len(lat) > 1 else lat[0])
        return out


def _count_uncertain_membership(layer, args, kwargs, result):
    layer.uncertain += result.verdict == "boundary-uncertain"


def _count_uncertain_windowed(layer, args, kwargs, result):
    layer.uncertain += len(result[1])


def _count_escalated(layer, args, kwargs, result):
    # interval(self, dps=30): an exact value needs no evaluation
    dps = args[1] if len(args) > 1 else kwargs.get("dps", BASE_DPS)
    if dps > BASE_DPS and args[0].exact is None:
        layer.escalated += 1


ON_RESULT = {
    "thin_cover.membership_U": _count_uncertain_membership,
    "projection_data.enumerate_large_projections_windowed":
        _count_uncertain_windowed,
    "certified.interval": _count_escalated,
}


class Tracer:
    """Installs the spans and the Surd construction counter."""

    def __init__(self):
        self.layers = {}
        self.stack = []  # child time accumulated by each open span
        self.top_s = 0.0  # time inside outermost spans
        self.surd_calls = 0

    def install(self):
        from horocover.certified import Undecided
        self.undecided = Undecided
        for module, attr in TRACED:
            name = f"{module}.{attr.rpartition('.')[2]}"
            self._patch(name, sys.modules["horocover." + module], attr)
        from horocover.surd import Surd
        init = Surd.__init__

        def counted_init(obj, *args, **kwargs):
            self.surd_calls += 1
            init(obj, *args, **kwargs)

        Surd.__init__ = counted_init

    def _patch(self, name, module, attr):
        owner, _, method = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            setattr(cls, method, self._wrap(name, getattr(cls, method)))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("horocover") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _wrap(self, name, fn):
        layer = self.layers[name] = Layer(name in LATENCIES)
        stack = self.stack
        on_result = ON_RESULT.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            layer.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self.undecided:
                layer.undecided += 1
                raise
            finally:
                dur = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
                layer.depth -= 1
                layer.calls += 1
                layer.self_s += dur - children
                if layer.depth == 0:
                    layer.total_s += dur
                if layer.latencies is not None:
                    layer.latencies.append(dur)
            if on_result is not None:
                on_result(layer, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def reset(self):
        for layer in self.layers.values():
            layer.clear()
        self.top_s = 0.0
        self.surd_calls = 0

    def summary(self) -> dict:
        out = {name: layer.summary() for name, layer in self.layers.items()}
        out["surd.Surd"] = {"calls": self.surd_calls}
        return out

    def self_time(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())
