"""Equilateral closed polygons in 3-space and the planar hull geometry they rely on.

A knot here is a cyclic sequence of ``n`` points with unit consecutive
distances.  Self-intersecting configurations are legal (they carry zero
thickness); embeddedness is therefore a reported flag rather than a validity
requirement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngle, EdgeLengthViolation, TooFewVertices

EPS_EDGE = 1e-9     # unit-edge validation band
EPS_GEOM = 1e-9     # collinearity / on-boundary band for planar tests
EPS_ANGLE = 1e-12   # angle classification band


class KnotPolygon:
    """Closed equilateral polygon; ``vertices`` is a read-only (n, 3) array.

    Indexing is cyclic, so the edge ``k`` joins ``vertices[k]`` to
    ``vertices[(k + 1) % n]`` and no separate closure condition exists.
    Instances are immutable; every operation on them returns a new polygon.
    That makes the lazily computed embeddedness flag and thickness (filled
    by ``thickness.thickness_value``) safe to keep on the instance.
    """

    __slots__ = ("vertices", "_embedded", "_thickness")

    def __init__(self, vertices, _embedded=None):
        v = np.array(vertices, dtype=float)
        v.setflags(write=False)
        self.vertices = v
        self._embedded = _embedded
        self._thickness = None

    @classmethod
    def _adopt(cls, v):
        """A polygon over the float (n, 3) array v itself, not a copy; the
        caller must hold no other reference to v."""
        K = cls.__new__(cls)
        v.setflags(write=False)
        K.vertices = v
        K._embedded = None
        K._thickness = None
        return K

    @property
    def n(self):
        return len(self.vertices)

    def vertex(self, i):
        return self.vertices[i % self.n]

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
    """Check vertex count and unit edges; embeddedness stays a lazy flag.

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
    return KnotPolygon(v)


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


# ---------------------------------------------------------------------------
# planar convex hulls


@dataclass
class Hull2D:
    """Strictly convex hull of a planar point set.

    ``vertices`` are hull corners in counterclockwise order.
    ``subdimensional`` marks hulls with empty interior (all points within
    the collinearity band of one line).
    """

    vertices: np.ndarray
    boundary_mask: np.ndarray       # per input point: on boundary within band
    subdimensional: bool


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
        return Hull2D(P, _boundary_distances(P, pts) <= EPS_GEOM, True)

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

    return Hull2D(hull, _boundary_distances(hull, pts) <= EPS_GEOM, len(hull) <= 2)
