"""Reduction of any equilateral polygon to the regular planar polygon.

The pipeline runs three phases, each built from thickness-non-decreasing
moves:

1. expose the projection: reflect arcs across vertical supporting planes of
   the projected hull until every hull corner's preimage is a single run and
   all points sit on the hull boundary;
2. flatten: alternate pushout moves (which shrink the number of edge pairs
   with overlapping projections) with arc rotations that grow the set of
   minimum-height vertices until the knot is planar with convex projection;
3. regularize: six-reflection moves steer one vertex angle at a time onto
   the regular value.

Exact-arithmetic termination arguments do not transfer to floats, so every
loop carries a progress detector and an iteration cap and fails loudly with
PipelineStall instead of spinning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    AlreadyRegular,
    DegenerateAxis,
    NoSignChange,
    NotApplicable,
    NotCoplanarizable,
    PipelineStall,
)
from .moves import (
    ReflectionMove,
    _arc_interior,
    _axis_frame,
    _cross,
    apply_arc_rotation,
    apply_hextuple,
    apply_reflection,
    reflect_points,
    rotate_points,
)
from .polygon import (
    EPS_ANGLE,
    EPS_GEOM,
    KnotPolygon,
    _segment_segment_distance,
    convex_hull_2d,
    interior_angles,
    regular_angle,
    regular_polygon,
)
from .thickness import thickness_value

EPS_PROGRESS = 1e-12
EPS_FLAT = 1e-8
MIN_HEIGHT_BAND = 1e-9
THICKNESS_SLACK = 1e-9
# angle deviation small enough to call the polygon regular; the fold tie
# tolerance keeps the reachable set about 3e-9 away from exact regularity
TERMINAL_DEV = 1e-8


class StageKind(Enum):
    ExposeProjection = "ExposeProjection"
    Pushout = "Pushout"
    FlattenRotate = "FlattenRotate"
    FlattenRigid = "FlattenRigid"
    Regularize = "Regularize"
    RigidMotion = "RigidMotion"


@dataclass
class TraceEntry:
    stage: StageKind
    description: str
    thickness_before: float
    thickness_after: float
    mu: float
    incidence: int
    min_height_count: int


@dataclass
class CanonicalizationTrace:
    entries: list
    final: KnotPolygon
    final_rms: float = float("nan")


def mu(K: KnotPolygon) -> float:
    """Sum of pairwise distances between projected vertices; strictly grows
    when any arc is reflected outward across a supporting plane."""
    P = K.vertices[:, :2]
    d = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
    return float(np.sum(np.triu(d, 1)))


def _min_height_set(K, band=MIN_HEIGHT_BAND):
    z = K.vertices[:, 2]
    return np.flatnonzero(z <= z.min() + band)


def _pi_vertex_count(K):
    """Vertices whose projection doubles back (projected turning angle pi)."""
    P = K.vertices[:, :2]
    d1 = np.roll(P, -1, axis=0) - P
    d2 = np.roll(P, 1, axis=0) - P
    n1 = np.linalg.norm(d1, axis=1)
    n2 = np.linalg.norm(d2, axis=1)
    ok = (n1 > EPS_GEOM) & (n2 > EPS_GEOM)
    cross = np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    dot = np.sum(d1 * d2, axis=1)
    return int(np.sum(ok & (dot > 0) & (cross <= EPS_GEOM * n1 * n2)))


def incidence(K: KnotPolygon) -> int:
    """Edge pairs whose projections intersect non-trivially: adjacent pairs
    beyond the shared vertex image, non-adjacent pairs at all."""
    P = np.column_stack([K.vertices[:, :2], np.zeros(K.n)])
    n = K.n
    d0 = P
    dd = np.roll(P, -1, axis=0) - P
    dist = _segment_segment_distance(d0[:, None], dd[:, None], d0[None, :], dd[None, :])
    idx = np.arange(n)
    gap = (idx[:, None] - idx[None, :]) % n
    nonadj = (gap != 0) & (gap != 1) & (gap != n - 1)
    upper = idx[:, None] < idx[None, :]
    count = int(np.sum(nonadj & upper & (dist <= EPS_GEOM)))

    # adjacent pairs: a second intersection point requires the projections
    # to double back along a common line through the shared vertex
    Q = K.vertices[:, :2]
    for k in range(n):
        shared = (k + 1) % n
        d1 = Q[k] - Q[shared]
        d2 = Q[(k + 2) % n] - Q[shared]
        l1 = np.linalg.norm(d1)
        l2 = np.linalg.norm(d2)
        if l1 <= EPS_GEOM or l2 <= EPS_GEOM:
            continue
        cross = abs(d1[0] * d2[1] - d1[1] * d2[0])
        if cross <= EPS_GEOM * l1 * l2 and float(np.dot(d1, d2)) > 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# exposing the projection


def _projection_state(K):
    """(hull, nearly_convex, exposed) of the projection."""
    P = K.vertices[:, :2]
    hull = convex_hull_2d(P)
    if hull.subdimensional:
        return hull, False, True
    nearly = bool(np.all(hull.boundary_mask))
    if nearly:
        # every projected edge must ride a single hull edge (no chords)
        hv = hull.vertices
        m = len(hv)
        for k in range(K.n):
            pa, pb = P[k], P[(k + 1) % K.n]
            ok = False
            for e in range(m):
                a, b = hv[e], hv[(e + 1) % m]
                d = b - a
                ln = np.linalg.norm(d)
                d = d / ln
                wa, wb = pa - a, pb - a
                if (
                    abs(wa[0] * d[1] - wa[1] * d[0]) <= EPS_GEOM
                    and abs(wb[0] * d[1] - wb[1] * d[0]) <= EPS_GEOM
                    and -EPS_GEOM <= np.dot(wa, d) <= ln + EPS_GEOM
                    and -EPS_GEOM <= np.dot(wb, d) <= ln + EPS_GEOM
                ):
                    ok = True
                    break
            if not ok:
                nearly = False
                break
    exposed = True
    for c in hull.vertices:
        pre = np.flatnonzero(np.linalg.norm(P - c, axis=1) <= EPS_GEOM)
        if len(pre) <= 1:
            continue
        inset = np.zeros(K.n, dtype=bool)
        inset[pre] = True
        gaps = int(np.sum(inset & ~np.roll(inset, -1)))
        if gaps != 1:
            exposed = False
            break
    return hull, nearly, exposed


def _supporting_lines_with_corners(K, hull):
    """Supporting lines as (anchor, unit direction, outward normal) tuples:
    one per hull edge, plus the external bisector at any corner hosting
    coincident projections."""
    P = K.vertices[:, :2]
    hv = hull.vertices
    m = len(hv)
    out = []
    for k in range(m):
        a, b = hv[k], hv[(k + 1) % m]
        d = b - a
        d = d / np.linalg.norm(d)
        out.append((a, d, np.array([d[1], -d[0]])))
    for k in range(m):
        c = hv[k]
        near = np.flatnonzero(np.linalg.norm(P - c, axis=1) <= EPS_GEOM)
        if len(near) < 2:
            continue
        prev = hv[(k - 1) % m]
        nxt = hv[(k + 1) % m]
        d1 = (c - prev) / np.linalg.norm(c - prev)
        d2 = (nxt - c) / np.linalg.norm(nxt - c)
        n1 = np.array([d1[1], -d1[0]])
        n2 = np.array([d2[1], -d2[0]])
        nu = n1 + n2
        ln = np.linalg.norm(nu)
        if ln < 1e-12:
            continue
        nu /= ln
        out.append((c, np.array([nu[1], -nu[0]]), nu))
    return out


def _expose_candidates(K, hull):
    """All admissible supporting-plane arc reflections, one per (i, j, arc)."""
    P = K.vertices[:, :2]
    n = K.n
    V = K.vertices
    cands = []
    seen = set()
    for a, d, nrm in _supporting_lines_with_corners(K, hull):
        off = (P - a) @ nrm
        on_line = np.flatnonzero(np.abs(off) <= EPS_GEOM)
        if len(on_line) < 2:
            continue
        online_set = set(int(x) for x in on_line)
        eta = np.array([nrm[0], nrm[1], 0.0])
        for ai in range(len(on_line)):
            for bi in range(ai + 1, len(on_line)):
                i, j = int(on_line[ai]), int(on_line[bi])
                if np.linalg.norm(V[i] - V[j]) < 1e-9:
                    continue
                for lo, hi in ((i, j), (j, i)):
                    arc = _arc_interior(n, lo, hi)
                    if not arc or all(k in online_set for k in arc):
                        continue
                    key = (lo, hi, round(float(nrm[0]), 12), round(float(nrm[1]), 12))
                    if key in seen:
                        continue
                    seen.add(key)
                    cands.append((i, j, lo, hi, arc, eta))
    return cands


def _apply_vertical_reflection(K, anchor_idx, arc, eta):
    """Reflect arc vertices across the vertical plane through the anchor with
    horizontal normal eta; z coordinates are bit-identical by construction."""
    v = np.array(K.vertices)
    v[arc] = reflect_points(v[arc], v[anchor_idx], eta)
    return KnotPolygon(v)


def find_edge_pair_move(K: KnotPolygon):
    """Best supporting-plane arc reflection, or None when the projection is
    already exposed.

    Candidates live on hull-edge lines and on external bisectors at corners
    with coincident projections; selection first minimizes the number of
    doubled-back projected vertices, then maximizes mu, with ties broken by
    the smallest index pair.
    """
    hull, nearly, exposed = _projection_state(K)
    if hull.subdimensional or (nearly and exposed):
        return None
    best = _select_expose_move(K, hull)
    if best is None:
        return None
    i, j, lo, hi, arc, eta = best
    u, b1, b2 = _axis_frame(K.vertex(lo), K.vertex(hi))
    theta = float(np.arctan2(np.dot(eta, b2), np.dot(eta, b1)))
    return ReflectionMove(lo, hi, theta)


def _select_expose_move(K, hull):
    cands = _expose_candidates(K, hull)
    if not cands:
        return None
    th0 = thickness_value(K)
    scored = []
    for c in cands:
        i, j, lo, hi, arc, eta = c
        K2 = _apply_vertical_reflection(K, lo, arc, eta)
        scored.append(((_pi_vertex_count(K2), -mu(K2), i, j, lo), c, K2))
    scored.sort(key=lambda t: t[0])
    for key, c, K2 in scored:
        # supporting planes cannot squeeze the knot, but verify before trusting
        if thickness_value(K2) >= th0 - THICKNESS_SLACK:
            return c
    return None


def expose_projection(K: KnotPolygon):
    """Iterate supporting-plane reflections until the projection is exposed.

    Heights never change (all mirrors are vertical), thickness never drops,
    and mu strictly grows; stalls and iteration caps raise PipelineStall.
    """
    entries = []
    cap = 10 * K.n * K.n
    for _ in range(cap):
        hull, nearly, exposed = _projection_state(K)
        if hull.subdimensional or (nearly and exposed):
            return K, entries
        th0 = thickness_value(K)
        mu0 = mu(K)
        pi0 = _pi_vertex_count(K)
        best = _select_expose_move(K, hull)
        if best is None:
            raise PipelineStall("expose", "no admissible supporting-plane move")
        i, j, lo, hi, arc, eta = best
        K2 = _apply_vertical_reflection(K, lo, arc, eta)
        mu1 = mu(K2)
        pi1 = _pi_vertex_count(K2)
        if mu1 - mu0 <= EPS_PROGRESS and pi1 >= pi0:
            raise PipelineStall("expose", f"no progress (dmu={mu1 - mu0:g})")
        K = K2
        entries.append(
            TraceEntry(
                StageKind.ExposeProjection,
                f"reflect arc ({lo},{hi}) across supporting plane",
                th0,
                thickness_value(K),
                mu1,
                incidence(K),
                len(_min_height_set(K)),
            )
        )
    raise PipelineStall("expose", f"iteration cap {cap} reached")


# ---------------------------------------------------------------------------
# pushout


@dataclass(frozen=True)
class RigidRotation:
    point: tuple
    axis: tuple
    angle: float


@dataclass(frozen=True)
class TiltReflection:
    i: int
    j: int
    normal: tuple  # unit mirror normal; plane passes through v_i and v_j


def apply_move(K: KnotPolygon, move):
    """Apply any move object produced by this module."""
    if isinstance(move, RigidRotation):
        v = rotate_points(
            np.array(K.vertices),
            np.asarray(move.point),
            np.asarray(move.axis),
            move.angle,
        )
        return KnotPolygon(v)
    if isinstance(move, TiltReflection):
        v = np.array(K.vertices)
        arc = _arc_interior(K.n, move.i, move.j)
        v[arc] = reflect_points(v[arc], v[move.i], np.asarray(move.normal))
        return KnotPolygon(v)
    if isinstance(move, ReflectionMove):
        return apply_reflection(K, move)
    raise TypeError(f"unknown move {move!r}")


def _convex_projection(K):
    hull, nearly, exposed = _projection_state(K)
    return (not hull.subdimensional) and nearly and exposed and incidence(K) == 0


def _lower_hull_2d(Q):
    """Indices (into Q) of the lower convex hull, left to right."""
    order = sorted(range(len(Q)), key=lambda k: (Q[k][0], Q[k][1], k))
    chain = []
    for k in order:
        while len(chain) >= 2:
            o, a = Q[chain[-2]], Q[chain[-1]]
            b = Q[k]
            if (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) >= 0:
                chain.pop()
            else:
                break
        chain.append(k)
    return chain


def pushout_move(K: KnotPolygon):
    """Move that strictly reduces incidence for an exposed, non-convex
    projection: a rigid rotation when the projection is a segment, otherwise
    a small tilt reflection peeling a doubled-back subarc off its hull edge.
    """
    if _convex_projection(K):
        raise NotApplicable("projection already convex")
    P = K.vertices[:, :2]
    hull = convex_hull_2d(P)
    V = K.vertices
    n = K.n

    if hull.subdimensional:
        hv = hull.vertices
        if len(hv) >= 2:
            d2 = hv[1] - hv[0]
            d2 = d2 / np.linalg.norm(d2)
        else:
            d2 = np.array([1.0, 0.0])
        u3 = np.array([d2[0], d2[1], 0.0])
        nu = np.array([-d2[1], d2[0], 0.0])
        zhat = np.array([0.0, 0.0, 1.0])
        beta = float(np.arctan2(np.dot(_cross(nu, zhat), u3), np.dot(nu, zhat)))
        centroid = V.mean(axis=0)
        return RigidRotation(tuple(centroid), tuple(u3), beta)

    inc0 = incidence(K)
    th0 = thickness_value(K)
    mh0 = set(int(x) for x in _min_height_set(K))
    zhat = np.array([0.0, 0.0, 1.0])
    hv = hull.vertices
    m = len(hv)

    for e in range(m):
        a2, b2 = hv[e], hv[(e + 1) % m]
        d2 = b2 - a2
        ln = float(np.linalg.norm(d2))
        d2 = d2 / ln
        out2 = np.array([d2[1], -d2[0]])
        offs = np.abs((P - a2) @ out2)
        s_par = (P - a2) @ d2
        in_band = (offs <= EPS_GEOM) & (s_par >= -EPS_GEOM) & (s_par <= ln + EPS_GEOM)
        # maximal cyclic runs of consecutive vertices on this hull edge
        runs = []
        if in_band.all():
            runs.append(list(range(n)))
        else:
            k0 = int(np.flatnonzero(~in_band)[0])
            run = []
            for t in range(1, n + 1):
                k = (k0 + t) % n
                if in_band[k]:
                    run.append(k)
                elif run:
                    runs.append(run)
                    run = []
        for run in runs:
            if len(run) < 3:
                continue
            s = s_par[run]
            if np.all(np.diff(s) > -EPS_GEOM) or np.all(np.diff(s) < EPS_GEOM):
                continue  # monotone: no doubling back on this edge
            z = V[run, 2]
            Q = list(zip(s, z))
            lower = _lower_hull_2d(Q)
            for li in range(len(lower) - 1):
                ia, ib = lower[li], lower[li + 1]
                if ia > ib:
                    ia, ib = ib, ia
                va, vb = run[ia], run[ib]
                arc = run[ia + 1: ib]  # knot subarc inside the run
                if not arc:
                    continue
                axis = V[vb] - V[va]
                alen = float(np.linalg.norm(axis))
                if alen < 1e-9:
                    continue
                u = axis / alen
                b_down = -zhat + float(np.dot(zhat, u)) * u
                bn = float(np.linalg.norm(b_down))
                if bn < 1e-9:
                    continue
                b_down /= bn
                n_in3 = np.array([-out2[0], -out2[1], 0.0])
                n_in3 = n_in3 - float(np.dot(n_in3, u)) * u
                nn = float(np.linalg.norm(n_in3))
                if nn < 1e-9:
                    continue
                n_in3 /= nn
                # minimal cylindrical angle of the knot about the axis line
                r = V - V[va]
                r = r - (r @ u)[:, None] * u
                rn = np.linalg.norm(r, axis=1)
                offaxis = rn > 1e-9
                if not offaxis.any():
                    continue
                ang = np.arctan2(r[offaxis] @ n_in3, r[offaxis] @ b_down)
                theta_min = float(np.min(ang))
                if theta_min <= 1e-12:
                    continue
                tilt = theta_min / 2.0
                for _ in range(8):
                    mdir = np.cos(tilt) * b_down + np.sin(tilt) * n_in3
                    nrm = _cross(u, mdir)
                    nrm = nrm / np.linalg.norm(nrm)
                    move = TiltReflection(va, vb, tuple(nrm))
                    K2 = apply_move(K, move)
                    mh2 = set(int(x) for x in _min_height_set(K2))
                    if (
                        incidence(K2) < inc0
                        and thickness_value(K2) >= th0 - THICKNESS_SLACK
                        and mh2 == mh0
                    ):
                        return move
                    tilt /= 2.0
    raise PipelineStall("pushout", "no incidence-reducing tilt found")


# ---------------------------------------------------------------------------
# flatten


def _flatten_single_min(K, k0):
    """Rigid rotation about a horizontal axis through the unique min-height
    vertex, stopped when a second vertex reaches the same height.  The axis
    direction is the grid candidate with the smallest stopping angle."""
    V = K.vertices
    v0 = V[k0]
    best = None
    for mdir in range(16):
        psi = np.pi * mdir / 16.0
        u = np.array([np.cos(psi), np.sin(psi), 0.0])
        r = V - v0
        a = r[:, 2]
        b = np.cross(u, r)[:, 2]
        phis = []
        for k in range(len(V)):
            if k == k0 or a[k] <= MIN_HEIGHT_BAND:
                continue
            phi = float(np.arctan2(b[k], a[k]) + np.pi / 2.0)
            if phi <= 1e-15:
                phi += np.pi
            phis.append(phi)
        if not phis:
            continue
        phi_stop = min(phis)
        if best is None or phi_stop < best[0]:
            best = (phi_stop, u)
    if best is None:
        raise PipelineStall("flatten", "no rotation lowers a second vertex")
    phi_stop, u = best
    return RigidRotation(tuple(v0), tuple(u), phi_stop)


def _flatten_arc_step(K, M):
    """Arc rotation bringing one more vertex down to the min-height plane."""
    n = K.n
    V = K.vertices
    Ms = sorted(int(x) for x in M)
    pair = None
    for t in range(len(Ms)):
        a = Ms[t]
        b = Ms[(t + 1) % len(Ms)]
        arc = _arc_interior(n, a, b)
        if arc and not any(k in M for k in arc):
            pair = (a, b, arc)
            break
    if pair is None:
        raise PipelineStall("flatten", "no free arc between min-height vertices")
    a, b, arc = pair
    axis = V[b] - V[a]
    alen = float(np.linalg.norm(axis))
    if alen < 1e-9:
        raise PipelineStall("flatten", "degenerate min-height axis")
    u = axis / alen
    zhat = np.array([0.0, 0.0, 1.0])
    b_vert = zhat - float(np.dot(zhat, u)) * u
    b_vert /= np.linalg.norm(b_vert)
    b_hor = _cross(u, b_vert)
    r = V[arc] - V[a]
    r = r - (r @ u)[:, None] * u
    side = float(np.sum(r @ b_hor))
    b_out = b_hor if side >= 0 else -b_hor
    ang = np.arctan2(r @ b_vert, r @ b_out)
    ang = np.where(ang < 0, 0.0, ang)
    theta = float(np.min(ang))
    return a, b, theta


def flatten(K: KnotPolygon):
    """Drive the knot into a single horizontal plane with convex projection."""
    entries = []
    n = K.n
    cap = 10 * n * n
    K, e = expose_projection(K)
    entries.extend(e)
    for _ in range(cap):
        inner = 0
        while not _convex_projection(K):
            K, e = expose_projection(K)
            entries.extend(e)
            if _convex_projection(K):
                break
            mv = pushout_move(K)
            th0 = thickness_value(K)
            K = apply_move(K, mv)
            entries.append(
                TraceEntry(
                    StageKind.Pushout,
                    f"pushout {type(mv).__name__}",
                    th0,
                    thickness_value(K),
                    mu(K),
                    incidence(K),
                    len(_min_height_set(K)),
                )
            )
            inner += 1
            if inner > cap:
                raise PipelineStall("flatten", "pushout loop cap reached")
        z = K.vertices[:, 2]
        if float(z.max() - z.min()) <= EPS_FLAT:
            return K, entries
        M = set(int(x) for x in _min_height_set(K))
        th0 = thickness_value(K)
        if len(M) == 1:
            (k0,) = M
            mv = _flatten_single_min(K, k0)
            K2 = apply_move(K, mv)
            stage = StageKind.FlattenRigid
            desc = f"rigid rotation about min vertex {k0}"
        else:
            a, b, theta = _flatten_arc_step(K, M)
            K2 = None
            for phi in (-theta, theta):
                cand = apply_arc_rotation(K, a, b, phi)
                zc = cand.vertices[:, 2]
                if zc.min() >= K.vertices[:, 2].min() - MIN_HEIGHT_BAND and len(
                    _min_height_set(cand)
                ) > len(M):
                    K2 = cand
                    break
            if K2 is None:
                raise PipelineStall("flatten", "arc rotation failed both directions")
            stage = StageKind.FlattenRotate
            desc = f"rotate arc ({a},{b}) down by {theta:.6g}"
        th1 = thickness_value(K2)
        if th1 < th0 - THICKNESS_SLACK:
            raise PipelineStall("flatten", f"thickness dropped {th0:g} -> {th1:g}")
        if len(_min_height_set(K2)) <= len(M):
            raise PipelineStall("flatten", "min-height count did not grow")
        K = K2
        entries.append(
            TraceEntry(stage, desc, th0, th1, mu(K), incidence(K),
                       len(_min_height_set(K)))
        )
    raise PipelineStall("flatten", f"iteration cap {cap} reached")


# ---------------------------------------------------------------------------
# regularize


def _candidate_quads(K: KnotPolygon):
    """Every quadruple the existence-proof walk can produce, canonical one
    first: each small v1 whose forward gap to the next large w1 holds only
    regular vertices, combined with each large w2 backward of v1 and each
    small v2 between w1 and w2.

    With no quadruple, the PipelineStall names the role missing for the
    first small v1 that has a w1.  Such a v1 always exists once both kinds
    do: walking back from a large vertex past regular and large ones, the
    first small vertex met has a w1."""
    n = K.n
    dev = interior_angles(K) - regular_angle(n)
    small = dev < -EPS_ANGLE
    large = dev > EPS_ANGLE
    if not small.any() and not large.any():
        raise AlreadyRegular("all interior angles regular within tolerance")
    if not small.any() or not large.any():
        raise PipelineStall("regularize", "one-sided angle deviations")
    quads = []
    first_w2s = None
    for v1 in range(n):
        if not small[v1]:
            continue
        w1 = None
        for t in range(1, n):
            m = (v1 + t) % n
            if large[m]:
                w1 = m
                break
            if small[m]:
                break
        if w1 is None:
            continue
        w2s = []
        for t in range(1, n):
            m = (v1 - t) % n
            if m == w1:
                break
            if large[m]:
                w2s.append(m)
        if first_w2s is None:
            first_w2s = w2s
        for w2 in w2s:
            for t in range(1, n):
                m = (w1 + t) % n
                if m == w2:
                    break
                if small[m]:
                    quads.append((v1, w1, m, w2))
    if not quads:
        missing = "small" if first_w2s else "large"
        raise PipelineStall("regularize", f"no second {missing} vertex")
    return quads


def _quad_diagnostic(K, quad):
    v1, w1, v2, w2 = quad
    V = K.vertices
    e1 = V[w1] - V[v1]
    e2 = V[v2] - V[w1]
    e3 = V[w2] - V[v2]
    e4 = V[v1] - V[w2]
    return float(np.dot(_cross(e1, e2), _cross(e3, e4)))


def _flat_convex(P, reg):
    """Planar and convex: z-spread tiny and unsigned interior angles summing
    to the full (n-2)*pi (any reflex vertex strictly lowers the sum)."""
    z = P.vertices[:, 2]
    if float(np.max(z) - np.min(z)) > EPS_FLAT:
        return False
    return abs(float(np.sum(interior_angles(P) - reg))) < 1e-6


def _quad_root_search(K, quad, reg, th0, count0, regular_count):
    """Search (0, pi/2] for the smallest motion parameter where a tracked
    angle of `quad` lands on regular without losing thickness.  Returns
    (theta or None, kind, have_bracket, residual): kind "root" for an exact
    angle crossing, "terminal" for a point just below a fold-branch switch
    with the whole polygon within TERMINAL_DEV of regular, "partial" for the
    best convex thickness-safe point short of a switch (residual = its
    remaining max deviation)."""
    dev = interior_angles(K) - reg
    probes = {}

    def probe(theta):
        # a fold can sweep v1 onto v2 (or degenerate the target plane) at
        # isolated angles; those probes are simply not usable.  Bracket
        # ends, root candidates and fallbacks come back to the same theta,
        # so each probe, usable or not, is computed once per search
        if theta not in probes:
            try:
                probes[theta] = apply_hextuple(K, quad, theta)
            except (NotCoplanarizable, DegenerateAxis):
                probes[theta] = None
        return probes[theta]

    # bracket the sign change of the quadrilateral diagnostic
    f0 = _quad_diagnostic(K, quad)
    hi = np.pi / 2.0
    f_hi = None
    while hi > 1e-9:
        P = probe(hi)
        if P is not None:
            f_hi = _quad_diagnostic(P, quad)
            break
        hi *= 0.9
    lo_b = 0.0
    have_bracket = f_hi is not None and f_hi * f0 < 0
    if not have_bracket:
        # scan for a sign change inside (0, hi]
        fgrid = np.linspace(0.0, hi, 65)[1:]
        prev_t = 0.0
        for t in fgrid:
            P = probe(t)
            if P is None:
                continue
            ft = _quad_diagnostic(P, quad)
            if ft * f0 < 0:
                lo_b, hi = prev_t, float(t)
                have_bracket = True
                break
            prev_t = float(t)
    if have_bracket:
        while hi - lo_b > 1e-12:
            mid = 0.5 * (lo_b + hi)
            P = probe(mid)
            if P is None:
                hi = mid
                continue
            fm = _quad_diagnostic(P, quad)
            if fm * f0 < 0:
                hi = mid
            else:
                lo_b = mid
    # when the diagnostic keeps its sign (a flap fold switched branch
    # discontinuously) an angle crossing may still exist, so the angle
    # search covers the whole reachable range either way
    theta0 = hi

    # smallest theta in (0, theta0] where a tracked angle turns regular
    def tracked_dev(theta):
        P = probe(theta)
        if P is None:
            return None
        return interior_angles(P)[list(quad)] - reg

    g0 = dev[list(quad)]
    grid = np.linspace(0.0, theta0, 65)
    best_theta = None
    near_theta = None  # branch-switch endpoint that almost regularizes
    near_dev = np.inf
    prev_t = 0.0
    for t in grid[1:]:
        g = tracked_dev(float(t))
        if g is None:
            continue
        for q in range(4):
            if g[q] * g0[q] <= 0.0:
                # bisect this bracket for this angle; gb is b_t's deviation
                # (None where that probe was unusable)
                a_t, b_t, gb = prev_t, float(t), g
                for _ in range(200):
                    if b_t - a_t < 1e-15:
                        break
                    m_t = 0.5 * (a_t + b_t)
                    gm = tracked_dev(m_t)
                    if gm is None or gm[q] * g0[q] <= 0.0:
                        b_t, gb = m_t, gm
                    else:
                        a_t = m_t
                    if gb is not None and abs(gb[q]) < EPS_ANGLE / 8:
                        break
                # a flap fold switching branch makes the angle jump across
                # regular without attaining it; only roots whose polygon
                # also keeps thickness and gains a regular vertex qualify
                for cand in (b_t, a_t):
                    gc = tracked_dev(cand)
                    if gc is None or abs(gc[q]) >= EPS_ANGLE / 2:
                        continue
                    P2 = probe(cand)
                    if (
                        _flat_convex(P2, reg)
                        and thickness_value(P2) >= th0 - THICKNESS_SLACK
                        and regular_count(P2) > count0
                    ):
                        if best_theta is None or cand < best_theta:
                            best_theta = cand
                        break
                # the mechanism can pass through regular exactly where a
                # fold branch switches; the lower endpoint then stops a
                # hair short of it and is good enough to finish on
                Pa = probe(a_t)
                if Pa is not None and _flat_convex(Pa, reg):
                    md = float(np.max(np.abs(interior_angles(Pa) - reg)))
                    if md < near_dev and thickness_value(Pa) >= th0 - THICKNESS_SLACK:
                        near_dev, near_theta = md, a_t
        if best_theta is not None:
            return best_theta, "root", have_bracket, 0.0
        prev_t = float(t)

    # no sign change anywhere: hunt for a fold-branch jump straddling the
    # regular configuration and take the last reachable point below it
    prev_t, prev_g = 0.0, g0.copy()
    for t in grid[1:]:
        g = tracked_dev(float(t))
        if g is None:
            continue
        if np.max(np.abs(g - prev_g)) > 0.1:
            a_t, b_t, ga = prev_t, float(t), prev_g
            for _ in range(80):
                if b_t - a_t < 1e-15:
                    break
                m_t = 0.5 * (a_t + b_t)
                gm = tracked_dev(m_t)
                if gm is not None and np.max(np.abs(gm - ga)) < 0.05:
                    a_t, ga = m_t, gm
                else:
                    b_t = m_t
            Pa = probe(a_t)
            if Pa is not None and _flat_convex(Pa, reg):
                md = float(np.max(np.abs(interior_angles(Pa) - reg)))
                if md < near_dev and thickness_value(Pa) >= th0 - THICKNESS_SLACK:
                    near_dev, near_theta = md, a_t
        prev_t, prev_g = float(t), g
    if near_theta is not None:
        kind = "terminal" if near_dev <= TERMINAL_DEV else "partial"
        return near_theta, kind, have_bracket, near_dev
    return None, None, have_bracket, np.inf


def regularize(K: KnotPolygon):
    """Steer every interior angle to the regular value, one six-reflection
    move per iteration; each move makes at least one more vertex regular
    and leaves the rest on their side of regular."""
    entries = []
    n = K.n
    reg = regular_angle(n)

    def regular_count(P):
        return int(np.sum(np.abs(interior_angles(P) - reg) <= EPS_ANGLE))

    for _ in range(10 * n):
        maxdev = float(np.max(np.abs(interior_angles(K) - reg)))
        if maxdev <= TERMINAL_DEV:
            return K, entries
        try:
            quads = _candidate_quads(K)
        except AlreadyRegular:
            return K, entries
        except PipelineStall:
            if maxdev <= TERMINAL_DEV:  # roundoff rubble, not structural
                return K, entries
            raise
        th0 = thickness_value(K)
        count0 = regular_count(K)

        # a fold branch switching mid-motion can make one quadruple's family
        # miss every angle crossing; another admissible quadruple then works
        found = None
        fallbacks = []
        any_bracket = False
        for quad in quads:
            theta, kind, hb, resid = _quad_root_search(
                K, quad, reg, th0, count0, regular_count
            )
            any_bracket = any_bracket or hb
            if kind == "root":
                found = (quad, theta, kind)
                break
            if kind is not None:
                fallbacks.append((kind, resid, quad, theta))
        if found is None and fallbacks:
            # no exact crossing reachable before a fold branch switches;
            # settle for the best convex stopping point, provided it makes
            # real progress, and keep iterating
            fallbacks.sort(key=lambda r: (r[0] != "terminal", r[1]))
            kind, resid, quad, theta = fallbacks[0]
            if kind == "terminal" or resid <= 0.9 * maxdev:
                found = (quad, theta, kind)
        if found is None:
            if not any_bracket:
                raise NoSignChange(
                    "quad diagnostic keeps sign and no tracked angle reaches "
                    f"regular for any of {len(quads)} quadruples"
                )
            raise PipelineStall("regularize", "no tracked angle reaches regular")
        quad, best_theta, kind = found

        K2 = apply_hextuple(K, quad, best_theta)
        th1 = thickness_value(K2)
        if th1 < th0 - THICKNESS_SLACK:
            raise PipelineStall("regularize", f"thickness dropped {th0:g} -> {th1:g}")
        if kind == "root" and regular_count(K2) <= count0:
            raise PipelineStall("regularize", "regular count did not grow")
        K = K2
        entries.append(
            TraceEntry(
                StageKind.Regularize,
                f"hextuple quad {quad} at theta={best_theta:.6g}",
                th0,
                th1,
                mu(K),
                incidence(K),
                len(_min_height_set(K)),
            )
        )
    raise PipelineStall("regularize", "move budget spent with irregular angles")


# ---------------------------------------------------------------------------
# full pipeline


def _aligned_rms(K, ref):
    """RMS distance after optimal rigid alignment (reflections allowed:
    mirror-image chirality is folded by the move set)."""
    A = np.array(K.vertices, dtype=float)
    B = np.array(ref.vertices, dtype=float)
    A -= A.mean(axis=0)
    B -= B.mean(axis=0)
    H = A.T @ B
    U, _, Vt = np.linalg.svd(H)
    R = U @ Vt
    return float(np.sqrt(np.mean(np.sum((A @ R - B) ** 2, axis=1))))


def canonicalize(K: KnotPolygon) -> CanonicalizationTrace:
    """Full reduction: expose/convexify, flatten, align, regularize.

    Every trace entry is thickness-monotone within 1e-9; the final polygon
    matches the regular one up to rigid motion (final_rms reports the
    residual after alignment).
    """
    entries = []
    K, e = flatten(K)
    entries.extend(e)

    # rigid alignment of the flat knot onto the z = 0 plane
    th0 = thickness_value(K)
    v = np.array(K.vertices)
    shift = float(v[:, 2].mean())
    if abs(shift) > 0:
        v[:, 2] -= shift
        K = KnotPolygon(v)
        entries.append(
            TraceEntry(
                StageKind.RigidMotion,
                f"translate to z = 0 (dz = {-shift:.6g})",
                th0,
                thickness_value(K),
                mu(K),
                incidence(K),
                len(_min_height_set(K)),
            )
        )

    K, e = regularize(K)
    entries.extend(e)
    rms = _aligned_rms(K, regular_polygon(K.n))
    return CanonicalizationTrace(entries=entries, final=K, final_rms=rms)
