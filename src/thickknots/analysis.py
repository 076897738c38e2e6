"""Ensemble observables: radius of gyration and a knottedness heuristic.

The determinant |Delta(-1)| is computed from a crossing diagram read off a
generic planar projection.  Determinant 1 is necessary but not sufficient
for the unknot, so "unknotted" reported downstream is a one-sided check.
"""

from __future__ import annotations

import numpy as np

from .errors import NoGenericProjection
from .moves import _cross
from .polygon import EPS_GEOM, KnotPolygon

MAX_PROJECTION_TRIES = 64


def radius_of_gyration(K: KnotPolygon) -> float:
    """Vertex-based Rg: root mean square distance to the vertex centroid."""
    v = K.vertices
    c = v.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum((v - c) ** 2, axis=1))))


def _projection_frame(direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(ref, d)) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    b1 = ref - np.dot(ref, d) * d
    b1 /= np.linalg.norm(b1)
    b2 = _cross(d, b1)
    return b1, b2, d


def _segment_crossing(p, r, q, s, eps):
    """Transverse interior intersection of 2D segments p+t*r, q+u*s.

    Returns (t, u) in (eps, 1-eps)^2, None when disjoint, or False when the
    configuration is non-generic (near-parallel overlap, endpoint grazing)."""
    denom = r[0] * s[1] - r[1] * s[0]
    d = q - p
    scale = max(np.linalg.norm(r), np.linalg.norm(s), 1e-30)
    if abs(denom) <= eps * scale * scale:
        # parallel: generic iff the lines are safely apart
        off = abs(d[0] * r[1] - d[1] * r[0]) / scale
        return None if off > eps * scale else False
    t = (d[0] * s[1] - d[1] * s[0]) / denom
    u = (d[0] * r[1] - d[1] * r[0]) / denom
    if eps < t < 1 - eps and eps < u < 1 - eps:
        return t, u
    if -eps <= t <= 1 + eps and -eps <= u <= 1 + eps:
        return False  # endpoint grazing: not generic
    return None


def _diagram(K: KnotPolygon, direction):
    """Crossing list [(edge_i, t_i, edge_j, t_j, over_is_i)] for one
    projection direction, or None when the projection is not generic."""
    n = K.n
    b1, b2, d = _projection_frame(direction)
    P = np.column_stack([K.vertices @ b1, K.vertices @ b2])
    H = K.vertices @ d
    E = np.roll(P, -1, axis=0) - P
    crossings = []
    points = []
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            hit = _segment_crossing(P[i], E[i], P[j], E[j], EPS_GEOM * 1e3)
            if hit is False:
                return None
            if hit is None:
                continue
            t, u = hit
            zi = H[i] + t * (H[(i + 1) % n] - H[i])
            zj = H[j] + u * (H[(j + 1) % n] - H[j])
            if abs(zi - zj) <= EPS_GEOM:
                return None  # heights tie: direction not generic
            crossings.append((i, t, j, u, zi > zj))
            points.append(P[i] + t * E[i])
    # no triple points: crossing images pairwise separated
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if np.linalg.norm(points[a] - points[b]) <= EPS_GEOM:
                return None
    return crossings


def _bareiss_det(M):
    """Fraction-free integer determinant (Python ints, no overflow)."""
    A = [[int(x) for x in row] for row in M]
    m = len(A)
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(m - 1):
        if A[k][k] == 0:
            for r in range(k + 1, m):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, m):
            for c in range(k + 1, m):
                A[r][c] = (A[r][c] * A[k][k] - A[r][k] * A[k][c]) // prev
        prev = A[k][k]
    return sign * A[m - 1][m - 1]


def _determinant_from_diagram(K, crossings):
    n = K.n
    if not crossings:
        return 1
    # arcs run between consecutive underpass points along the knot
    unders = []
    for i, t, j, u, over_is_i in crossings:
        unders.append((j, u) if over_is_i else (i, t))
    unders.sort()
    m = len(unders)

    def arc_of(edge, t):
        # index of the arc containing position (edge, t); arc k starts at
        # underpass k and ends at underpass k+1 (cyclically)
        for k in range(m - 1, -1, -1):
            ue, ut = unders[k]
            if (ue, ut) <= (edge, t):
                return k
        return m - 1  # before the first underpass: wraps into the last arc

    M = [[0] * m for _ in range(m)]
    for row, (i, t, j, u, over_is_i) in enumerate(crossings):
        if over_is_i:
            oe, ot, ue, ut = i, t, j, u
        else:
            oe, ot, ue, ut = j, u, i, t
        k = unders.index((ue, ut))
        incoming = (k - 1) % m
        M[row][arc_of(oe, ot)] += 2
        M[row][incoming] -= 1
        M[row][k] -= 1
    # delete one row and one column; the rest is |Delta(-1)| up to sign
    reduced = [row[: m - 1] for row in M[: m - 1]]
    return abs(_bareiss_det(reduced))


def alexander_determinant(K: KnotPolygon, start_direction=None) -> int:
    """|Delta(-1)| from the first generic projection near `start_direction`
    (default +z), perturbing deterministically until genericity holds."""
    base = np.array([0.0, 0.0, 1.0]) if start_direction is None else (
        np.asarray(start_direction, dtype=float)
    )
    rng = np.random.default_rng(0x5EED)
    for attempt in range(MAX_PROJECTION_TRIES):
        d = base if attempt == 0 else base + 0.3 * rng.standard_normal(3)
        if np.linalg.norm(d) < 1e-6:
            continue
        crossings = _diagram(K, d)
        if crossings is None:
            continue
        return _determinant_from_diagram(K, crossings)
    raise NoGenericProjection(
        f"no generic projection in {MAX_PROJECTION_TRIES} attempts"
    )
