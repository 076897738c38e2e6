"""Ensemble observables: radius of gyration and a knottedness heuristic.

The determinant |Delta(-1)| is computed from a crossing diagram read off a
generic planar projection.  Determinant 1 is necessary but not sufficient
for the unknot, so "unknotted" reported downstream is a one-sided check.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=32)
def _edge_pairs(n):
    """(i, j) index arrays of the non-adjacent edge pairs i < j, in row-major
    order: np.triu_indices(n, 2) without the pair (0, n - 1)."""
    i, j = np.triu_indices(n, 2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _segment_crossings(p, r, q, s, scale, eps):
    """Classify 2D segment pairs p+t*r, q+u*s, one pair per row; `scale` is
    max(|r|, |s|, 1e-30) per row.

    Returns (hit, bad, t, u): `hit` marks transverse interior intersections,
    with (t, u) in (eps, 1-eps)^2; `bad` marks non-generic pairs
    (near-parallel overlap, endpoint grazing).  Rows with neither are
    disjoint, and their t and u are meaningless."""
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    d = q - p
    u_num = d[:, 0] * r[:, 1] - d[:, 1] * r[:, 0]
    # parallel: generic iff the lines are safely apart (a NaN offset is not)
    parallel = np.abs(denom) <= eps * scale * scale
    overlap = parallel & ~(np.abs(u_num) / scale > eps * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (d[:, 0] * s[:, 1] - d[:, 1] * s[:, 0]) / denom
        u = u_num / denom
    hit = ~parallel & (eps < t) & (t < 1 - eps) & (eps < u) & (u < 1 - eps)
    graze = (~parallel & ~hit & (-eps <= t) & (t <= 1 + eps)
             & (-eps <= u) & (u <= 1 + eps))
    return hit, overlap | graze, t, u


def _diagram(K: KnotPolygon, direction):
    """Crossing list [(edge_i, t_i, edge_j, t_j, over_is_i)] for one
    projection direction, or None when the projection is not generic.
    All non-adjacent edge pairs are classified in one vectorized pass."""
    n = K.n
    b1, b2, d = _projection_frame(direction)
    P = np.column_stack([K.vertices @ b1, K.vertices @ b2])
    H = K.vertices @ d
    E = np.roll(P, -1, axis=0) - P
    I, J = _edge_pairs(n)
    # one np.linalg.norm per edge: the same bits as norming E[i] alone
    norms = np.array([np.linalg.norm(e) for e in E])
    scale = np.maximum(np.maximum(norms[I], norms[J]), 1e-30)
    hit, bad, t, u = _segment_crossings(P[I], E[I], P[J], E[J], scale,
                                        EPS_GEOM * 1e3)
    if bad.any():
        return None
    I, J, t, u = I[hit], J[hit], t[hit], u[hit]
    dH = np.roll(H, -1) - H
    zi = H[I] + t * dH[I]
    zj = H[J] + u * dH[J]
    if np.any(np.abs(zi - zj) <= EPS_GEOM):
        return None  # heights tie: direction not generic
    # no triple points: crossing images pairwise separated; the squared
    # distance prefilter keeps every pair the exact norm test could reject
    points = P[I] + t[:, None] * E[I]
    gap = points[:, None, :] - points[None, :, :]
    near = np.argwhere(np.triu(np.sum(gap * gap, axis=2) <= (2 * EPS_GEOM) ** 2, 1))
    for a, b in near:
        if np.linalg.norm(points[a] - points[b]) <= EPS_GEOM:
            return None
    return list(zip(I.tolist(), t.tolist(), J.tolist(), u.tolist(), (zi > zj).tolist()))


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
    rng = None  # built only when the first direction is not generic
    for attempt in range(MAX_PROJECTION_TRIES):
        if attempt == 0:
            d = base
        else:
            if rng is None:
                rng = np.random.default_rng(0x5EED)
            d = base + 0.3 * rng.standard_normal(3)
        if np.linalg.norm(d) < 1e-6:
            continue
        crossings = _diagram(K, d)
        if crossings is None:
            continue
        return _determinant_from_diagram(K, crossings)
    raise NoGenericProjection(
        f"no generic projection in {MAX_PROJECTION_TRIES} attempts"
    )
