"""Windowed projection complexes: graphs, geodesic DAGs, angles, d^max.

The projection complex on a family of horoballs joins X and Z when no third
member sees a projection distance above K.  We work on finite windows built
from anchor pairs via exact enumeration; all edge tests and angle values are
exact rationals.  The local-estimate and attraction constants are measured
per window and pinned, since the construction downstream only consumes them
through inequalities.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .certified import INFINITE
from .hyperbolic import Horoball, proj_dist_frac, proj_dist_int
from .projection_data import enumerate_large_projections


@dataclass(frozen=True)
class Window:
    vertices: tuple  # sorted Horoballs
    K: Fraction

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           tuple(sorted(set(self.vertices),
                                        key=lambda Y: (Y.q, Y.p))))


def build_window(anchors, theta: Fraction, K: Fraction | None = None) -> Window:
    """Window containing the anchors and every Y with d^pi_Y(a, b) > theta/2
    for some anchor pair (a, b)."""
    anchors = list(anchors)
    if not anchors:
        raise ValueError("need at least one anchor")
    K = Fraction(K) if K is not None else 10 * Fraction(theta)
    verts = set(anchors)
    for i, a in enumerate(anchors):
        for b in anchors[i + 1:]:
            if a == b:
                continue
            for Y, _ in enumerate_large_projections(a, b, Fraction(theta) / 2):
                verts.add(Y)
    return Window(tuple(verts), K)


class ProjComplexGraph:
    """The projection complex restricted to a finite window."""

    def __init__(self, window: Window):
        self.window = window
        self.K = window.K
        vs = window.vertices
        self.adj = {v: set() for v in vs}
        for i, X in enumerate(vs):
            for Z in vs[i + 1:]:
                if self._edge(X, Z):
                    self.adj[X].add(Z)
                    self.adj[Z].add(X)
        self._dist_cache = {}

    def _edge(self, X: Horoball, Z: Horoball) -> bool:
        """No third vertex Y has d^pi_Y(X, Z) infinite or above K."""
        kn, kd = self.K.numerator, self.K.denominator
        x, z = (X.p, X.q), (Z.p, Z.q)
        for Y in self.window.vertices:
            if Y == X or Y == Z:
                continue
            n, fx, fz = proj_dist_int((Y.p, Y.q), x, z)
            if fx == 0 or fz == 0 or n * kd > kn * fx * fz:
                return False
        return True

    @property
    def vertices(self):
        return self.window.vertices

    def _bfs(self, X: Horoball) -> dict:
        if X in self._dist_cache:
            return self._dist_cache[X]
        dist = {X: 0}
        q = deque([X])
        while q:
            v = q.popleft()
            for w in self.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        self._dist_cache[X] = dist
        return dist

    def distance(self, X: Horoball, Z: Horoball) -> int | None:
        return self._bfs(X).get(Z)

    def connected(self) -> bool:
        return len(self._bfs(self.vertices[0])) == len(self.vertices)

    # -- geodesic DAGs and angles -----------------------------------------

    def geodesic_dag(self, X: Horoball, Z: Horoball):
        """(on_geodesic vertex set, dX, dZ); DAG edges go between layers."""
        dX, dZ = self._bfs(X), self._bfs(Z)
        if Z not in dX:
            raise ValueError("X and Z are in different components")
        D = dX[Z]
        on = {v for v in self.vertices
              if v in dX and v in dZ and dX[v] + dZ[v] == D}
        return on, dX, dZ

    def angle_pairs(self, X: Horoball, Z: Horoball, Y: Horoball):
        """Admissible (pred, succ) pairs of Y on geodesics X -> Z."""
        if Y == X or Y == Z:
            raise ValueError("the angle at an endpoint is undefined")
        on, dX, dZ = self.geodesic_dag(X, Z)
        if Y not in on:
            return []
        k = dX[Y]
        preds = [w for w in self.adj[Y] if w in on and dX[w] == k - 1]
        succs = [w for w in self.adj[Y] if w in on and dX[w] == k + 1]
        return [(p, s) for p in preds for s in succs]

    def dmax(self, X: Horoball, Z: Horoball, Y: Horoball) -> Fraction:
        """max angle of Y over geodesics X -> Z; 0 when Y is on none."""
        pairs = self.angle_pairs(X, Z, Y)
        if not pairs:
            return Fraction(0)
        return max(proj_dist_frac(Y, p, s) for p, s in pairs)

    def avoidable(self, X: Horoball, Z: Horoball, Y: Horoball) -> bool:
        """Does some geodesic X -> Z miss Y?  (Exact, via BFS without Y.)"""
        D = self.distance(X, Z)
        dist = {X: 0}
        q = deque([X])
        while q:
            v = q.popleft()
            if dist[v] >= D:
                break
            for w in self.adj[v]:
                if w != Y and w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        return dist.get(Z) == D


# -- measured constants ----------------------------------------------------


def verify_local_estimate(graph: ProjComplexGraph) -> Fraction:
    """Measured theta'_P: max |d^pi_Y(X,Z) - d^pi_Y(X',Z')| over geodesics
    through Y with X' between X and Y, Z' between Y and Z (exhaustive)."""
    best = Fraction(0)
    vs = graph.vertices
    for X in vs:
        dX = graph._bfs(X)
        for Z in vs:
            if Z == X or Z not in dX or dX[Z] < 2:
                continue
            on, dX2, dZ = graph.geodesic_dag(X, Z)
            D = dX2[Z]
            for Y in on:
                if Y in (X, Z):
                    continue
                base = proj_dist_frac(Y, X, Z)
                if base is INFINITE:
                    continue
                dY = graph._bfs(Y)
                befores = [v for v in on
                           if v != Y and dX2[v] + dY[v] == dX2[Y]]
                afters = [v for v in on
                          if v != Y and dY[v] + dZ[v] == dZ[Y]]
                for Xp in befores:
                    for Zp in afters:
                        d2 = proj_dist_frac(Y, Xp, Zp)
                        if d2 is INFINITE:
                            continue
                        best = max(best, abs(base - d2))
    return best


def verify_attraction(graph: ProjComplexGraph) -> Fraction:
    """Measured theta_P: the largest d^pi_Y(X,Z) over triples where some
    geodesic X -> Z avoids Y; above this every geodesic passes through Y."""
    best = Fraction(0)
    vs = graph.vertices
    for X in vs:
        for Z in vs:
            if Z == X or graph.distance(X, Z) is None:
                continue
            for Y in vs:
                if Y in (X, Z):
                    continue
                d = proj_dist_frac(Y, X, Z)
                if d is INFINITE:
                    continue
                if graph.avoidable(X, Z, Y):
                    best = max(best, d)
    return best


def check_angle_transfer(graph: ProjComplexGraph, theta_P: Fraction):
    """Exact check of the key transfer identity: when a geodesic X -> Z
    passes Y0 then Y and max{d^pi_Y0(X,Y), d^pi_Y0(X,Z), dmax_Y0(X,Z)} is
    at least theta_P, then d^max_Y(X,Z) = d^max_Y(Y0,Z).

    Returns (instances, failures, witnesses).
    """
    vs = graph.vertices
    instances = failures = 0
    witnesses = []
    for X in vs:
        for Z in vs:
            if Z == X or graph.distance(X, Z) is None:
                continue
            on, dX, dZ = graph.geodesic_dag(X, Z)
            inner = [v for v in on if v not in (X, Z)]
            for Y0 in inner:
                dY0 = graph._bfs(Y0)
                for Y in inner:
                    if Y == Y0:
                        continue
                    # Y0 then Y on a common geodesic
                    if dX[Y0] + dY0[Y] + dZ[Y] != dX[Z] or dX[Y0] >= dX[Y]:
                        continue
                    vals = [proj_dist_frac(Y0, X, Y), proj_dist_frac(Y0, X, Z),
                            graph.dmax(X, Z, Y0)]
                    vals = [v for v in vals if v is not INFINITE]
                    if not vals or max(vals) < theta_P:
                        continue
                    instances += 1
                    lhs = graph.dmax(X, Z, Y)
                    rhs = graph.dmax(Y0, Z, Y)
                    if lhs != rhs:
                        failures += 1
                        if len(witnesses) < 5:
                            witnesses.append((X, Y0, Y, Z, lhs, rhs))
    return instances, failures, witnesses
