"""Equilateral closed polygons in 3-space and the planar hull geometry they rely on.

A knot here is a cyclic sequence of ``n`` points with unit consecutive
distances.  Self-intersecting configurations are legal (they carry zero
thickness); embeddedness is therefore a reported flag rather than a validity
requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateAngle,
    EdgeLengthViolation,
    PointNotOnKnot,
    TooFewVertices,
)

EPS_EDGE = 1e-9     # unit-edge validation band
EPS_GEOM = 1e-9     # collinearity / on-boundary band for planar tests
EPS_ANGLE = 1e-12   # angle classification band


class KnotPolygon:
    """Closed equilateral polygon; ``vertices`` is a read-only (n, 3) array.

    Indexing is cyclic, so the edge ``k`` joins ``vertices[k]`` to
    ``vertices[(k + 1) % n]`` and no separate closure condition exists.
    Instances are immutable; every operation on them returns a new polygon.
    """

    __slots__ = ("vertices", "_embedded")

    def __init__(self, vertices, _embedded=None):
        v = np.array(vertices, dtype=float)
        v.setflags(write=False)
        self.vertices = v
        self._embedded = _embedded

    @property
    def n(self):
        return len(self.vertices)

    def vertex(self, i):
        return self.vertices[i % self.n]

    def edge_vector(self, i):
        n = self.n
        return self.vertices[(i + 1) % n] - self.vertices[i % n]

    def edge_vectors(self):
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def edge_lengths(self):
        return np.linalg.norm(self.edge_vectors(), axis=1)

    @property
    def embedded(self):
        """True when non-adjacent edges stay disjoint (checked lazily)."""
        if self._embedded is None:
            self._embedded = _is_embedded(self.vertices)
        return self._embedded

    def with_vertices(self, vertices):
        return KnotPolygon(vertices)

    def __repr__(self):
        return f"KnotPolygon(n={self.n})"


def _pairwise_segment_distances(vertices):
    """Distance between every pair of edges, vectorized. Returns (n, n) array
    with +inf on the diagonal and for adjacent edge pairs."""
    n = len(vertices)
    a0 = vertices
    da = np.roll(vertices, -1, axis=0) - vertices
    # broadcast edge i against edge j
    d = _segment_segment_distance(a0[:, None], da[:, None], a0[None, :], da[None, :])
    idx = np.arange(n)
    adj = (np.abs(idx[:, None] - idx[None, :]) % n)
    mask = (adj == 0) | (adj == 1) | (adj == n - 1)
    d = np.where(mask, np.inf, d)
    return d


def _segment_segment_distance(p0, u, q0, v):
    """Closest distance between segments p0+s*u and q0+t*v, s,t in [0,1].

    Broadcasts over leading axes.  Clamped-quadratic method; the parallel
    case falls out of the clamping.
    """
    w = p0 - q0
    a = np.sum(u * u, axis=-1)
    b = np.sum(u * v, axis=-1)
    c = np.sum(v * v, axis=-1)
    d = np.sum(u * w, axis=-1)
    e = np.sum(v * w, axis=-1)
    denom = a * c - b * b
    small = denom < 1e-14
    s = np.where(small, 0.0, np.clip((b * e - c * d) / np.where(small, 1.0, denom), 0.0, 1.0))
    # refine t given s, then s given t (exact for the clamped problem)
    t = (b * s + e) / np.where(c < 1e-300, 1.0, c)
    t = np.clip(t, 0.0, 1.0)
    s = (b * t - d) / np.where(a < 1e-300, 1.0, a)
    s = np.clip(s, 0.0, 1.0)
    diff = (p0 + s[..., None] * u) - (q0 + t[..., None] * v)
    return np.linalg.norm(diff, axis=-1)


def _is_embedded(vertices, tol=EPS_GEOM):
    d = _pairwise_segment_distances(vertices)
    return bool(np.min(d) > tol)


def validate_polygon(vertices) -> KnotPolygon:
    """Check vertex count and unit edges; embeddedness becomes a flag.

    Raises TooFewVertices or EdgeLengthViolation.  Crossing edges do not
    fail validation: non-embedded polygons are knots with zero thickness.
    """
    if isinstance(vertices, KnotPolygon):
        vertices = vertices.vertices
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise TooFewVertices("expected an (n, 3) array of vertices")
    if len(v) < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {len(v)}")
    if not np.all(np.isfinite(v)):
        raise EdgeLengthViolation(int(np.argwhere(~np.isfinite(v))[0][0]), float("nan"))
    lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    dev = np.abs(lengths - 1.0)
    worst = int(np.argmax(dev))
    if dev[worst] > EPS_EDGE:
        raise EdgeLengthViolation(worst, float(dev[worst]))
    return KnotPolygon(v, _embedded=_is_embedded(v))


def regular_polygon(n: int) -> KnotPolygon:
    """Planar regular n-gon with unit edges in the x-y plane, centroid at the
    origin, circumradius 1/(2 sin(pi/n)), vertex 0 on the +x axis."""
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    r = 1.0 / (2.0 * np.sin(np.pi / n))
    ang = 2.0 * np.pi * np.arange(n) / n
    v = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.zeros(n)])
    return KnotPolygon(v, _embedded=True)


def regular_angle(n: int) -> float:
    return np.pi * (n - 2) / n


def interior_angles(K: KnotPolygon) -> np.ndarray:
    """Interior angle at every vertex, in [0, pi]."""
    v = K.vertices
    # np.roll(v, -1) and np.roll(v, 1), without np.roll's per-call overhead
    fwd = np.concatenate((v[1:], v[:1])) - v
    bwd = np.concatenate((v[-1:], v[:-1])) - v
    nf = np.linalg.norm(fwd, axis=1)
    nb = np.linalg.norm(bwd, axis=1)
    if np.any(nf < EPS_EDGE) or np.any(nb < EPS_EDGE):
        raise DegenerateAngle("zero-length edge")
    cosang = (fwd * bwd).sum(axis=1) / (nf * nb)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def turning_angles(K: KnotPolygon) -> np.ndarray:
    return np.pi - interior_angles(K)


def vertex_angles(K: KnotPolygon, i: int):
    """(interior, turning) angles at vertex i."""
    ang = interior_angles(K)[i % K.n]
    return float(ang), float(np.pi - ang)


def angle_class(K: KnotPolygon, i: int) -> str:
    """'small', 'regular' or 'large' relative to the regular n-gon angle."""
    interior, _ = vertex_angles(K, i)
    reg = regular_angle(K.n)
    if abs(interior - reg) <= EPS_ANGLE:
        return "regular"
    return "large" if interior > reg else "small"


# ---------------------------------------------------------------------------
# points on the knot: a vertex index, or (edge index, parameter in [0, 1])

def _as_position(K, p):
    """Normalize a point-on-knot address to a scalar position in [0, n)."""
    n = K.n
    if isinstance(p, (int, np.integer)):
        return float(p % n)
    try:
        edge, t = p
    except (TypeError, ValueError):
        raise PointNotOnKnot(f"bad point address {p!r}")
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise PointNotOnKnot(f"edge parameter {t} outside [0, 1]")
    return (int(edge) % n + t) % n


def point_on_knot(K, p):
    """3-space location of a point address."""
    pos = _as_position(K, p)
    edge = int(np.floor(pos))
    t = pos - edge
    return K.vertex(edge) + t * K.edge_vector(edge)


def total_curvature(K: KnotPolygon, a, b) -> float:
    """Minimum over the two arcs from a to b of the summed turning angles.

    Turning at a and/or b is included whenever that endpoint is a vertex.
    The empty arc (a == b) contributes 0.
    """
    n = K.n
    pa = _as_position(K, a)
    pb = _as_position(K, b)
    if abs(pa - pb) < 1e-15 or abs(abs(pa - pb) - n) < 1e-15:
        return 0.0
    turn = turning_angles(K)

    def arc_sum(lo, hi):
        # turnings of vertices with cyclic position in [lo, hi]; integer
        # endpoints (i.e. vertex endpoints) are included, matching the
        # definition's "including the turning angles at a and/or b"
        span = (hi - lo) % n
        total = 0.0
        for m in range(n):
            if (m - lo) % n <= span + 1e-12:
                total += turn[m]
        return total

    return float(min(arc_sum(pa, pb), arc_sum(pb, pa)))


# ---------------------------------------------------------------------------
# planar convex hulls


@dataclass
class Hull2D:
    """Strictly convex hull of a planar point set.

    ``vertices`` are hull corners in counterclockwise order; points within
    EPS_GEOM of the boundary but not corners are listed in
    ``collinear_boundary``.  ``subdimensional`` marks hulls with empty
    interior (all points within the collinearity band of one line).
    """

    vertices: np.ndarray
    boundary_mask: np.ndarray       # per input point: on boundary within band
    collinear_boundary: np.ndarray  # input indices on boundary, not corners
    subdimensional: bool
    _input: np.ndarray = field(repr=False, default=None)

    def supporting_lines(self):
        """(point, outward unit normal) per hull edge; empty if degenerate."""
        v = self.vertices
        m = len(v)
        if m < 2:
            return []
        if m == 2:
            d = v[1] - v[0]
            d = d / np.linalg.norm(d)
            nrm = np.array([d[1], -d[0]])
            return [(v[0], nrm), (v[0], -nrm)]
        lines = []
        for k in range(m):
            a, b = v[k], v[(k + 1) % m]
            d = b - a
            d = d / np.linalg.norm(d)
            lines.append((a, np.array([d[1], -d[0]])))  # outward for ccw
        return lines


def _point_segment_distance(p, a, b):
    d = b - a
    den = float(np.dot(d, d))
    if den < 1e-300:
        return float(np.linalg.norm(p - a))
    t = np.clip(float(np.dot(p - a, d)) / den, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * d)))


def _boundary_distances(hull, pts):
    """Distance from each point in pts (k, 2) to the boundary of the hull
    with corners `hull` (m, 2) in order: one vectorized point-to-edge pass
    (a single segment when m == 2, the corner itself when m == 1)."""
    m = len(hull)
    a = hull[: m if m > 2 else 1]
    d = hull[(np.arange(len(a)) + 1) % m] - a
    den = np.sum(d * d, axis=1)
    w = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(w * d, axis=2) / np.where(den < 1e-300, 1.0, den), 0.0, 1.0)
    closest = a[None, :, :] + t[..., None] * d[None, :, :]
    return np.min(np.linalg.norm(pts[:, None, :] - closest, axis=2), axis=1)


def _point_line_distance(p, a, u):
    """Distance from p to the line through a with unit direction u (2D)."""
    w = p - a
    return abs(w[0] * u[1] - w[1] * u[0])


def convex_hull_2d(points) -> Hull2D:
    """Counterclockwise strictly convex hull with an EPS_GEOM collinearity
    band.  Ties in the sort break by (x, y, input index), which makes the
    output deterministic for repeated points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 1:
        raise ValueError("need at least one 2D point")
    n = len(pts)
    order = sorted(range(n), key=lambda k: (pts[k, 0], pts[k, 1], k))
    sorted_pts = pts[order]

    # drop exact duplicates for construction
    uniq = [0]
    for k in range(1, n):
        if np.linalg.norm(sorted_pts[k] - sorted_pts[uniq[-1]]) > 1e-300:
            uniq.append(k)
    P = sorted_pts[uniq]

    if len(P) == 1:
        verts = P.copy()
        bmask = _boundary_distances(verts, pts) <= EPS_GEOM
        extra = np.array([k for k in range(n) if bmask[k]
                          and np.linalg.norm(pts[k] - P[0]) > 1e-300], dtype=int)
        return Hull2D(verts, bmask, extra, True, pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(P)
    upper = chain(P[::-1])
    hull = np.array(lower[:-1] + upper[:-1])

    # collapse corners that sit within the collinearity band of their
    # neighbors' chord: they are boundary points, not strict corners
    changed = True
    while changed and len(hull) > 2:
        changed = False
        m = len(hull)
        keep = np.ones(m, dtype=bool)
        for k in range(m):
            a, b, c = hull[(k - 1) % m], hull[k], hull[(k + 1) % m]
            if _point_segment_distance(b, a, c) <= EPS_GEOM:
                keep[k] = False
                changed = True
                break
        hull = hull[keep]

    bmask = _boundary_distances(hull, pts) <= EPS_GEOM
    corner_dist = np.linalg.norm(hull[None, :, :] - pts[:, None, :], axis=2)
    corner = bmask & (np.min(corner_dist, axis=1) <= EPS_GEOM)
    return Hull2D(hull, bmask, np.flatnonzero(bmask & ~corner), len(hull) <= 2, pts)
