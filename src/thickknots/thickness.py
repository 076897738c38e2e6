"""Polygonal injectivity radius: curvature radius, doubly critical pairs, and
the equivalent total-curvature characterization.

The primary computation enumerates doubly critical pairs in closed form per
primitive pair (vertex-vertex, vertex-edge, edge-edge).  ``radius_via_tc``
recomputes the radius from pairs separated by more than pi of turning angle
and serves as an independent cross-check; the two must agree to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polygon import KnotPolygon, interior_angles, turning_angles

_SLACK = 1e-12        # band for one-sided extremum tests
_T_INTERIOR = 1e-12   # open-interval band for interior edge parameters


@dataclass
class DoublyCriticalPair:
    kind: str                 # 'vertex-vertex' | 'vertex-edge' | 'edge-edge'
    loc_a: object             # vertex index or (edge, t)
    loc_b: object
    distance: float


@dataclass
class ThicknessReport:
    minrad: float
    minrad_vertex: int
    dcsd: float | None
    dcsd_pair: DoublyCriticalPair | None
    injectivity_radius: float
    thickness: float
    arclength: float


def minrad(K: KnotPolygon):
    """Smallest curvature radius d_v = tan(theta_v / 2) / 2 over vertices.

    Straight vertices (interior angle pi) impose no constraint and are
    excluded from the minimum.
    """
    vals = _curvature_radii(K)
    k = int(np.argmin(vals))
    return float(vals[k]), k


def _curvature_radii(K: KnotPolygon):
    """Per-vertex curvature radius tan(theta_v / 2) / 2, inf at straight
    vertices."""
    ang = interior_angles(K)
    return np.where(ang >= np.pi - 1e-12, np.inf, 0.5 * np.tan(ang / 2.0))


def _vertex_vertex_candidates(V, fwd=None, bwd=None):
    """Masks and distances for non-adjacent vertex pairs that are mutual
    one-sided extrema of the distance function. Returns (mask, dist) (n, n)."""
    n = len(V)
    if fwd is None:
        fwd = np.roll(V, -1, axis=0) - V  # v_{i+1} - v_i
    if bwd is None:
        bwd = np.roll(V, 1, axis=0) - V   # v_{i-1} - v_i
    diff = V[:, None, :] - V[None, :, :]  # v_i - v_j
    dist = np.linalg.norm(diff, axis=2)

    d1 = np.einsum("ik,ijk->ij", fwd, diff)
    d2 = np.einsum("ik,ijk->ij", bwd, diff)
    ext_i = ((d1 >= -_SLACK) & (d2 >= -_SLACK)) | ((d1 <= _SLACK) & (d2 <= _SLACK))
    ext = ext_i & ext_i.T

    idx = np.arange(n)
    gap = (idx[:, None] - idx[None, :]) % n
    nonadj = (gap != 0) & (gap != 1) & (gap != n - 1)
    mask = ext & nonadj & (idx[:, None] < idx[None, :])
    return mask, dist


def _vertex_edge_candidates(V, fwd=None, bwd=None):
    """Perpendicular-foot candidates (vertex k, edge j). Returns
    (mask, t, dist) of shape (n, n)."""
    n = len(V)
    if fwd is None:
        fwd = np.roll(V, -1, axis=0) - V
    if bwd is None:
        bwd = np.roll(V, 1, axis=0) - V
    E = fwd
    elen2 = np.sum(E * E, axis=1)
    w = V[:, None, :] - V[None, :, :]               # v_k - v_j
    t = np.einsum("kjd,jd->kj", w, E) / elen2[None, :]
    foot = V[None, :, :] + t[..., None] * E[None, :, :]
    dvec = V[:, None, :] - foot
    dist = np.linalg.norm(dvec, axis=2)

    d1 = np.einsum("kd,kjd->kj", fwd, dvec)
    d2 = np.einsum("kd,kjd->kj", bwd, dvec)
    ext_k = ((d1 >= -_SLACK) & (d2 >= -_SLACK)) | ((d1 <= _SLACK) & (d2 <= _SLACK))

    idx = np.arange(n)
    incident = (idx[:, None] == idx[None, :]) | (idx[:, None] == (idx[None, :] + 1) % n)
    interior = (t > _T_INTERIOR) & (t < 1.0 - _T_INTERIOR)
    mask = ext_k & interior & ~incident
    return mask, t, dist


def _edge_edge_candidates(V, fwd=None):
    """Mutual-perpendicular candidates between non-adjacent edges.  Returns
    (mask, s, t, dist) (n, n) plus a list of parallel-overlap pairs handled
    separately."""
    n = len(V)
    P0 = V
    U = np.roll(V, -1, axis=0) - V if fwd is None else fwd
    w = P0[:, None, :] - P0[None, :, :]
    a = np.sum(U * U, axis=1)
    b = np.einsum("id,jd->ij", U, U)
    d = np.einsum("ijd,id->ij", w, U)
    e = np.einsum("ijd,jd->ij", w, U)
    denom = a[:, None] * a[None, :] - b * b

    idx = np.arange(n)
    gap = (idx[:, None] - idx[None, :]) % n
    nonadj = (gap != 0) & (gap != 1) & (gap != n - 1)
    upper = idx[:, None] < idx[None, :]

    nondeg = denom > 1e-12
    safe = np.where(nondeg, denom, 1.0)
    s = (b * e - a[None, :] * d) / safe
    t = (a[:, None] * e - b * d) / safe
    interior = (
        (s > _T_INTERIOR) & (s < 1 - _T_INTERIOR)
        & (t > _T_INTERIOR) & (t < 1 - _T_INTERIOR)
    )
    diff = (P0[:, None, :] + s[..., None] * U[:, None, :]) - (
        P0[None, :, :] + t[..., None] * U[None, :, :]
    )
    dist = np.linalg.norm(diff, axis=2)
    mask = nondeg & interior & nonadj & upper

    # parallel non-adjacent pairs: midpoint of the projected overlap stands
    # in for the continuum of mutual perpendiculars
    parallel = []
    for i, j in np.argwhere(~nondeg & nonadj & upper):
        u = U[i]
        s0 = float(np.dot(P0[j] - P0[i], u) / a[i])
        s1 = float(np.dot(P0[j] + U[j] - P0[i], u) / a[i])
        lo, hi = max(0.0, min(s0, s1)), min(1.0, max(s0, s1))
        if hi - lo <= 2 * _T_INTERIOR:
            continue
        sm = 0.5 * (lo + hi)
        tm = (sm - s0) / (s1 - s0)
        if not (_T_INTERIOR < tm < 1 - _T_INTERIOR):
            continue
        pa = P0[i] + sm * u
        pb = P0[j] + tm * U[j]
        parallel.append((int(i), int(j), sm, tm, float(np.linalg.norm(pa - pb))))
    return mask, s, t, dist, parallel


def doubly_critical_pairs(K: KnotPolygon):
    """All doubly critical pairs, sorted by distance ascending."""
    V = K.vertices
    pairs = []

    mask, dist = _vertex_vertex_candidates(V)
    for i, j in np.argwhere(mask):
        pairs.append(DoublyCriticalPair("vertex-vertex", int(i), int(j), float(dist[i, j])))

    mask, t, dist = _vertex_edge_candidates(V)
    for k, j in np.argwhere(mask):
        pairs.append(
            DoublyCriticalPair("vertex-edge", int(k), (int(j), float(t[k, j])), float(dist[k, j]))
        )

    mask, s, t, dist, parallel = _edge_edge_candidates(V)
    for i, j in np.argwhere(mask):
        pairs.append(
            DoublyCriticalPair(
                "edge-edge", (int(i), float(s[i, j])), (int(j), float(t[i, j])), float(dist[i, j])
            )
        )
    for i, j, sm, tm, d in parallel:
        pairs.append(DoublyCriticalPair("edge-edge", (i, sm), (j, tm), d))

    pairs.sort(key=lambda p: p.distance)
    return pairs


def _pair_class_minima(V):
    """Smallest doubly-critical distance of each pair class that has a
    candidate, computed lazily in the order vertex-vertex, vertex-edge,
    edge-edge, parallel edge-edge, so a caller can stop after any class."""
    fwd = np.roll(V, -1, axis=0) - V
    bwd = np.roll(V, 1, axis=0) - V
    mask, dist = _vertex_vertex_candidates(V, fwd, bwd)
    if mask.any():
        yield float(dist[mask].min())
    mask, _, dist = _vertex_edge_candidates(V, fwd, bwd)
    if mask.any():
        yield float(dist[mask].min())
    mask, _, _, dist, parallel = _edge_edge_candidates(V, fwd)
    if mask.any():
        yield float(dist[mask].min())
    for _, _, _, _, d in parallel:
        yield d


def injectivity_radius(K: KnotPolygon) -> ThicknessReport:
    """Full report: R(K) = min(MinRad, dcsd/2), thickness = R / arclength."""
    mr, mk = minrad(K)
    pairs = doubly_critical_pairs(K)
    if pairs:
        dcsd = pairs[0].distance
        dcsd_pair = pairs[0]
        r = min(mr, dcsd / 2.0)
    else:
        dcsd = None
        dcsd_pair = None
        r = mr
    n = K.n
    return ThicknessReport(
        minrad=mr,
        minrad_vertex=mk,
        dcsd=dcsd,
        dcsd_pair=dcsd_pair,
        injectivity_radius=r,
        thickness=r / n,
        arclength=float(n),
    )


def thickness_value(K: KnotPolygon) -> float:
    """Thickness only, skipping witness construction.  Computed once per
    polygon object and kept on it (polygons are immutable)."""
    if K._thickness is None:
        r = float(np.min(_curvature_radii(K)))
        dcsd = min(_pair_class_minima(K.vertices), default=np.inf)
        if np.isfinite(dcsd):
            r = min(r, dcsd / 2.0)
        K._thickness = r / K.n
    return K._thickness


def thickness_at_least(K: KnotPolygon, t: float) -> bool:
    """Exactly ``thickness_value(K) >= t``, stopping at the first of minrad,
    vertex-vertex, vertex-edge and edge-edge whose minimum breaks the bound
    (the chain's accept test).

    Halving and division by n are correctly rounded and hence monotone, so
    they commute with min: comparing each class's (d / 2) / n with t gives
    the same answer as comparing the overall minimum.
    """
    n = K.n
    return (float(np.min(_curvature_radii(K))) / n >= t
            and all((d / 2.0) / n >= t for d in _pair_class_minima(K.vertices)))


# ---------------------------------------------------------------------------
# total-curvature route (independent cross-check)


def _cyclic_sum(prefix, total, a, b):
    """Sum of turnings of vertices a..b inclusive (cyclic)."""
    n = len(prefix) - 1
    a %= n
    b %= n
    if a <= b:
        return prefix[b + 1] - prefix[a]
    return total - (prefix[a] - prefix[b + 1])


def _refine_block_min(P0, U, Q0, Vv, iters=32):
    """Vectorized shrinking-grid minimization of |(P0+sU)-(Q0+tV)| over the
    unit box, one row per block.  The squared distance is convex, so keeping
    a one-cell margin around the incumbent retains the global minimum."""
    B = len(P0)
    s_lo = np.zeros(B)
    s_hi = np.ones(B)
    t_lo = np.zeros(B)
    t_hi = np.ones(B)
    grid = np.linspace(0.0, 1.0, 9)
    best = None
    for _ in range(iters):
        sg = s_lo[:, None] + (s_hi - s_lo)[:, None] * grid[None, :]
        tg = t_lo[:, None] + (t_hi - t_lo)[:, None] * grid[None, :]
        pa = P0[:, None, :] + sg[:, :, None] * U[:, None, :]
        pb = Q0[:, None, :] + tg[:, :, None] * Vv[:, None, :]
        D = np.linalg.norm(pa[:, :, None, :] - pb[:, None, :, :], axis=3)
        flat = D.reshape(B, -1)
        k = np.argmin(flat, axis=1)
        best = flat[np.arange(B), k]
        ks, kt = np.unravel_index(k, (9, 9))
        cs = (s_hi - s_lo) / 8.0
        ct = (t_hi - t_lo) / 8.0
        s_c = sg[np.arange(B), ks]
        t_c = tg[np.arange(B), kt]
        s_lo = np.clip(s_c - 1.5 * cs, 0.0, 1.0)
        s_hi = np.clip(s_c + 1.5 * cs, 0.0, 1.0)
        t_lo = np.clip(t_c - 1.5 * ct, 0.0, 1.0)
        t_hi = np.clip(t_c + 1.5 * ct, 0.0, 1.0)
    return best


def radius_via_tc(K: KnotPolygon) -> float:
    """R(K) from the total-curvature characterization:
    min(MinRad, min distance over pairs separated by more than pi of turning,
    halved).

    The turning separation is constant on the interior of each edge-pair
    block and jumps only when an endpoint sits at a vertex, so the region
    decomposes into edge-edge blocks, vertex-edge slices and vertex pairs.
    """
    V = K.vertices
    n = K.n
    turn = turning_angles(K)
    prefix = np.concatenate([[0.0], np.cumsum(turn)])
    total = prefix[-1]
    thresh = np.pi + 1e-12

    ang = interior_angles(K)
    mr = float(np.min(np.where(ang >= np.pi - 1e-12, np.inf, 0.5 * np.tan(ang / 2.0))))

    best = np.inf
    E = np.roll(V, -1, axis=0) - V

    # edge-edge blocks: interior points of edge i vs edge j
    blocks = []
    for i in range(n):
        for j in range(i, n):
            fw = _cyclic_sum(prefix, total, i + 1, j) if (j - i) % n != 0 else 0.0
            bw = _cyclic_sum(prefix, total, j + 1, i) if (i - j) % n != 0 else 0.0
            if i == j:
                continue
            if min(fw, bw) > thresh:
                blocks.append((i, j))
    if blocks:
        bi = np.array([b[0] for b in blocks])
        bj = np.array([b[1] for b in blocks])
        vals = _refine_block_min(V[bi], E[bi], V[bj], E[bj])
        best = min(best, float(np.min(vals)))

    # vertex k against interior of edge j
    for k in range(n):
        for j in range(n):
            fw = _cyclic_sum(prefix, total, k, j)
            bw = _cyclic_sum(prefix, total, (j + 1) % n, k)
            if min(fw, bw) > thresh:
                # 1D golden-section on the segment
                lo, hi = 0.0, 1.0
                gr = (np.sqrt(5.0) - 1.0) / 2.0
                f = lambda t: float(np.linalg.norm(V[k] - (V[j] + t * E[j])))
                x1 = hi - gr * (hi - lo)
                x2 = lo + gr * (hi - lo)
                f1, f2 = f(x1), f(x2)
                for _ in range(80):
                    if f1 <= f2:
                        hi, x2, f2 = x2, x1, f1
                        x1 = hi - gr * (hi - lo)
                        f1 = f(x1)
                    else:
                        lo, x1, f1 = x1, x2, f2
                        x2 = lo + gr * (hi - lo)
                        f2 = f(x2)
                best = min(best, f1, f2)

    # vertex-vertex
    for k in range(n):
        for l in range(k + 1, n):
            fw = _cyclic_sum(prefix, total, k, l)
            bw = _cyclic_sum(prefix, total, l, k)
            if min(fw, bw) > thresh:
                best = min(best, float(np.linalg.norm(V[k] - V[l])))

    return min(mr, best / 2.0)


def boundary_turning_check(K: KnotPolygon, tol=1e-9) -> bool:
    """Vertex pairs separated by exactly pi of turning are no closer than
    twice the curvature radius."""
    V = K.vertices
    n = K.n
    turn = turning_angles(K)
    prefix = np.concatenate([[0.0], np.cumsum(turn)])
    total = prefix[-1]
    mr, _ = minrad(K)
    for k in range(n):
        for l in range(k + 1, n):
            fw = _cyclic_sum(prefix, total, k, l)
            bw = _cyclic_sum(prefix, total, l, k)
            if abs(min(fw, bw) - np.pi) <= 1e-12:
                if np.linalg.norm(V[k] - V[l]) < 2.0 * mr - tol:
                    return False
    return True
