"""Reflection moves on equilateral polygons.

The elementary move reflects the open arc between two chosen vertices across
a plane containing both; it preserves edge lengths exactly and is an
involution.  Two such reflections about the same axis compose to an arc
rotation.  ``apply_hextuple`` is the composite six-reflection move that
drives a planar convex polygon toward the regular one while keeping the
quadrilateral diagonals under control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAxis, NotCoplanarizable
from .polygon import KnotPolygon

_EPS_AXIS = 1e-9


def _cross(a, b):
    """a x b for two single 3-vectors.

    The same products and differences as np.cross, in the same order, so
    the result is bit-identical; working on Python floats skips np.cross's
    heavy per-call overhead.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _norm(x):
    """Euclidean length of a contiguous 1-D real vector, as a float.

    This is what np.linalg.norm computes for such a vector, without its
    argument handling.
    """
    return math.sqrt(x.dot(x))


@dataclass(frozen=True)
class ReflectionMove:
    """Reflect one open arc between v_i and v_j across the plane through both
    vertices selected by the dihedral parameter theta.

    arc_choice picks which arc moves: 'forward' (v_i toward v_j) or
    'complement'.  The two options give globally congruent results, so the
    sampler only ever uses the forward arc.
    """

    i: int
    j: int
    theta: float
    arc_choice: str = "forward"


def _axis_frame(vi, vj):
    """Unit axis direction plus a deterministic orthonormal pair (b1, b2).

    The seed vector is the lowest-index standard basis vector that is not
    nearly parallel to the axis, so the frame depends only on the axis.
    """
    d = vj - vi
    norm = _norm(d)
    if norm < _EPS_AXIS:
        raise DegenerateAxis(f"axis endpoints coincide (|v_j - v_i| = {norm:g})")
    u = d / norm
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        if abs(float(np.dot(e, u))) < 0.9:
            break
    b1 = e - float(np.dot(e, u)) * u
    b1 = b1 / _norm(b1)
    return u, b1, _cross(u, b1)


def reflection_plane(K: KnotPolygon, i: int, j: int, theta: float):
    """(point, unit normal) of the mirror for the move (i, j, theta).

    theta and theta + pi give the same plane; theta = 0 selects normal b1.
    """
    vi = K.vertex(i)
    vj = K.vertex(j)
    _, b1, b2 = _axis_frame(vi, vj)
    normal = np.cos(theta) * b1 + np.sin(theta) * b2
    return vi, normal


def reflect_points(P, point, normal):
    """Mirror image of points P across the plane (point, unit normal)."""
    w = P - point
    return P - 2.0 * (w @ normal)[..., None] * normal


def rotate_points(P, point, axis_unit, angle):
    """Rodrigues rotation of points P about the line (point, axis_unit)."""
    u = axis_unit
    w = P - point
    c, s = np.cos(angle), np.sin(angle)
    return (
        point
        + c * w
        + s * np.cross(u, w)
        + (1.0 - c) * (w @ u)[..., None] * u
    )


def _arc_interior(n, i, j):
    """Indices strictly between i and j going forward, cyclically."""
    i %= n
    j %= n
    span = (j - i) % n
    return [(i + k) % n for k in range(1, span)]


def apply_reflection(K: KnotPolygon, move: ReflectionMove) -> KnotPolygon:
    """Reflect the forward open arc (i, j) across the selected plane.

    v_i and v_j stay fixed, so both boundary edges keep their lengths and
    the move is its own inverse.
    """
    point, normal = reflection_plane(K, move.i, move.j, move.theta)
    if move.arc_choice == "forward":
        idx = _arc_interior(K.n, move.i, move.j)
    else:
        idx = _arc_interior(K.n, move.j, move.i)
    if not idx:
        return K
    v = np.array(K.vertices)
    v[idx] = reflect_points(v[idx], point, normal)
    return KnotPolygon(v)


def apply_arc_rotation(K: KnotPolygon, i: int, j: int, phi: float, alpha: float = 0.0):
    """Rotate the forward open arc (i, j) by phi about the axis v_i v_j.

    Implemented as two reflections at dihedral parameters alpha and
    alpha + phi / 2, whose composition is the rotation by phi.
    """
    K1 = apply_reflection(K, ReflectionMove(i, j, alpha))
    return apply_reflection(K1, ReflectionMove(i, j, alpha + phi / 2.0))


# ---------------------------------------------------------------------------
# six-reflection regularizing move


def _plane_normal(p0, p1, p2):
    nrm = _cross(p1 - p0, p2 - p0)
    return nrm, _norm(nrm)


def _reflect_arc(v, idx, point, normal):
    if idx:
        v[idx] = reflect_points(v[idx], point, normal)


def apply_hextuple(K: KnotPolygon, quad, theta: float) -> KnotPolygon:
    """One-parameter deformation of a planar convex polygon in the x-y plane.

    quad = (v1, w1, v2, w2) in cyclic order.  The move lifts the arc through
    v1 out of plane by theta, folds w2 back into the plane of (v1, w1, v2),
    flattens the four connecting flaps into that plane, and rigidly re-aligns
    it with the x-y plane.  theta = 0 is the identity.  Side lengths of the
    quadrilateral are preserved while its diagonals vary with theta, which
    is what lets a vertex angle be steered to the regular value.

    Raises NotCoplanarizable when the fold target plane degenerates.
    """
    v1, w1, v2, w2 = quad
    n = K.n
    v = np.array(K.vertices)
    zhat = np.array([0.0, 0.0, 1.0])

    # stage 1: reflect the arc w2 -> v1 -> w1 across a plane through the
    # line (w1, w2), tilted by theta; the lifted side is fixed to z >= 0
    axis = v[w2] - v[w1]
    alen = _norm(axis)
    if alen < _EPS_AXIS:
        raise DegenerateAxis("hextuple axis w1 w2 degenerate")
    u = axis / alen
    h1 = zhat - float(np.dot(zhat, u)) * u
    h1n = _norm(h1)
    if h1n < _EPS_AXIS:
        raise DegenerateAxis("hextuple axis w1 w2 vertical")
    h1 /= h1n
    h2 = _cross(u, h1)
    arc1 = _arc_interior(n, w2, w1)
    chosen = None
    for sign in (1.0, -1.0):
        nrm = -np.cos(theta) * h1 + sign * np.sin(theta) * h2
        img = reflect_points(v[v1][None, :], v[w1], nrm)[0]
        if img[2] >= -1e-12:
            chosen = nrm
            break
    if chosen is None:  # numerically both below: take the higher image
        nrm = -np.cos(theta) * h1 + np.sin(theta) * h2
        chosen = nrm
    _reflect_arc(v, arc1, v[w1], chosen)

    # target plane through v1 (lifted), w1, v2
    n_pi, mag = _plane_normal(v[v1], v[w1], v[v2])
    if mag < 1e-12:
        raise NotCoplanarizable(mag)
    n_pi = n_pi / mag
    if float(np.dot(n_pi, zhat)) < 0:
        n_pi = -n_pi

    # stage 2: fold w2 (with the arc v2 -> w2 -> v1) about the line (v1, v2)
    # until w2 lands in the target plane
    axis2 = v[v2] - v[v1]
    a2len = _norm(axis2)
    if a2len < _EPS_AXIS:
        raise DegenerateAxis("hextuple axis v1 v2 degenerate")
    u2 = axis2 / a2len
    f = v[v1] + float(np.dot(v[w2] - v[v1], u2)) * u2
    rvec = v[w2] - f
    r = _norm(rvec)
    arc2 = _arc_interior(n, v2, v1)
    if r > _EPS_AXIS:
        d = _cross(n_pi, u2)
        dn = _norm(d)
        if dn < 1e-12:
            raise NotCoplanarizable(dn)
        d /= dn
        ca, cb = f + r * d, f - r * d
        if abs(ca[2] - cb[2]) > 1e-9:
            target = ca if ca[2] > cb[2] else cb
        else:  # z tie: the no-op direction wins (keeps T_0 the identity)
            target = ca if _norm(ca - v[w2]) <= _norm(cb - v[w2]) else cb
        delta = target - v[w2]
        if _norm(delta) > 1e-12:
            # arc2 already contains w2 (it is strictly inside v2 -> v1)
            nrm2 = delta / _norm(delta)
            _reflect_arc(v, arc2, v[v1], nrm2)

    # refresh the plane normal; w2 now lies in it up to roundoff
    n_pi, mag = _plane_normal(v[v1], v[w1], v[v2])
    if mag < 1e-12:
        raise NotCoplanarizable(mag)
    n_pi = n_pi / mag
    if float(np.dot(n_pi, zhat)) < 0:
        n_pi = -n_pi

    # stage 3: fold each flap (arc strictly between consecutive quad
    # vertices) into the target plane about its own chord
    for qa, qb in ((v1, w1), (w1, v2), (v2, w2), (w2, v1)):
        idx = _arc_interior(n, qa, qb)
        if not idx:
            continue
        axis3 = v[qb] - v[qa]
        a3len = _norm(axis3)
        if a3len < _EPS_AXIS:
            raise DegenerateAxis("hextuple flap chord degenerate")
        u3 = axis3 / a3len
        # representative off-axis direction of the flap plane
        rq = None
        for k in idx:
            w = v[k] - v[qa]
            w = w - float(np.dot(w, u3)) * u3
            wn = _norm(w)
            if wn > 1e-9:
                rq = w / wn
                break
        if rq is None:
            continue  # flap collinear with its chord; nothing to fold
        dpi = _cross(n_pi, u3)
        dn = _norm(dpi)
        if dn < 1e-12:
            raise NotCoplanarizable(dn)
        dpi /= dn
        best = None
        for d_target in (dpi, -dpi):
            nrm3 = rq - d_target
            nn = _norm(nrm3)
            if nn < 1e-12:
                moved = v[idx]
                disp = 0.0
            else:
                moved = reflect_points(v[idx], v[qa], nrm3 / nn)
                disp = float(np.sum(np.linalg.norm(moved - v[idx], axis=1)))
            key = (disp, -moved[0][2])
            if best is None or key < best[0]:
                best = (key, moved)
        v[idx] = best[1]

    # rigid re-alignment of the target plane with the x-y plane
    centroid = 0.25 * (v[v1] + v[w1] + v[v2] + v[w2])
    c = float(np.dot(n_pi, zhat))
    if c < 1.0 - 1e-15:
        axis_r = _cross(n_pi, zhat)
        an = _norm(axis_r)
        if an > 1e-15:
            angle = float(np.arctan2(an, c))
            v = rotate_points(v, centroid, axis_r / an, angle)
    v[:, 2] -= v[v1, 2]
    return KnotPolygon(v)
