import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_convex_planar, random_equilateral
from thickknots.errors import DegenerateAxis
from thickknots.moves import (
    ReflectionMove,
    _cross,
    _norm,
    apply_arc_rotation,
    apply_hextuple,
    apply_reflection,
    reflection_plane,
)
from thickknots.polygon import KnotPolygon, interior_angles, regular_polygon, validate_polygon
from thickknots.thickness import thickness_value


def test_reflection_fixes_axis_vertices():
    K = random_equilateral(8, 0)
    K2 = apply_reflection(K, ReflectionMove(1, 5, 0.7))
    assert np.allclose(K2.vertices[1], K.vertices[1])
    assert np.allclose(K2.vertices[5], K.vertices[5])
    # complement arc untouched
    for k in (6, 7, 0):
        assert np.allclose(K2.vertices[k], K.vertices[k])


def test_reflection_is_involution():
    K = random_equilateral(10, 3)
    mv = ReflectionMove(2, 7, 1.234)
    K2 = apply_reflection(apply_reflection(K, mv), mv)
    assert np.max(np.abs(K2.vertices - K.vertices)) < 1e-12


def test_reflection_preserves_edge_lengths():
    K = random_equilateral(9, 5)
    K2 = apply_reflection(K, ReflectionMove(0, 4, 2.5))
    assert np.max(np.abs(K2.edge_lengths() - 1.0)) < 1e-12


def test_adjacent_axis_is_identity():
    # no interior vertices between i and i+1
    K = random_equilateral(6, 1)
    K2 = apply_reflection(K, ReflectionMove(2, 3, 0.9))
    assert K2 is K


def test_plane_contains_both_axis_vertices():
    K = random_equilateral(7, 2)
    point, normal = reflection_plane(K, 1, 4, 0.3)
    assert np.isclose(np.dot(K.vertices[1] - point, normal), 0.0, atol=1e-12)
    assert np.isclose(np.dot(K.vertices[4] - point, normal), 0.0, atol=1e-12)
    assert np.isclose(np.linalg.norm(normal), 1.0)
    # theta and theta + pi describe the same mirror
    _, normal2 = reflection_plane(K, 1, 4, 0.3 + np.pi)
    assert np.allclose(normal2, -normal, atol=1e-12)


def test_degenerate_axis_raises():
    v = np.array(regular_polygon(6).vertices)
    v[3] = v[0]  # coincident endpoints (deliberately broken polygon)
    from thickknots.polygon import KnotPolygon

    K = KnotPolygon(v)
    with pytest.raises(DegenerateAxis):
        apply_reflection(K, ReflectionMove(0, 3, 0.1))


def test_arc_rotation_composes_two_reflections():
    K = random_equilateral(8, 7)
    K1 = apply_arc_rotation(K, 1, 5, 0.8, alpha=0.2)
    K2 = apply_reflection(K, ReflectionMove(1, 5, 0.2))
    K2 = apply_reflection(K2, ReflectionMove(1, 5, 0.6))
    assert np.max(np.abs(K1.vertices - K2.vertices)) < 1e-12


def test_arc_rotation_full_turn_is_identity():
    K = random_equilateral(8, 11)
    K2 = apply_arc_rotation(K, 0, 4, 2.0 * np.pi)
    assert np.max(np.abs(K2.vertices - K.vertices)) < 1e-10


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
def test_reflection_involution_property(seed, i, span, theta):
    K = random_equilateral(8, seed)
    mv = ReflectionMove(i, (i + span) % 8, theta)
    K1 = apply_reflection(K, mv)
    assert np.max(np.abs(K1.edge_lengths() - 1.0)) < 1e-12
    K2 = apply_reflection(K1, mv)
    assert np.max(np.abs(K2.vertices - K.vertices)) < 1e-12


# -- six-reflection composite ---------------------------------------------------


def _quad_for(K):
    """Any (v1, w1, v2, w2) in cyclic order with distinct vertices."""
    n = K.n
    step = n // 4
    return (0, step, 2 * step, 3 * step)


def test_hextuple_zero_is_identity():
    K = random_convex_planar(8, 0)
    K2 = apply_hextuple(K, _quad_for(K), 0.0)
    assert np.max(np.abs(K2.vertices - K.vertices)) < 1e-9


def test_hextuple_preserves_edges_and_plane():
    K = random_convex_planar(10, 1)
    K2 = apply_hextuple(K, _quad_for(K), 0.15)
    assert np.max(np.abs(K2.edge_lengths() - 1.0)) < 1e-9
    assert np.max(np.abs(K2.vertices[:, 2])) < 1e-8


def test_hextuple_preserves_quad_sides():
    K = random_convex_planar(12, 2)
    v1, w1, v2, w2 = _quad_for(K)
    K2 = apply_hextuple(K, (v1, w1, v2, w2), 0.2)

    def gap(P, a, b):
        return np.linalg.norm(P.vertices[a] - P.vertices[b])

    for a, b in [(v1, w1), (w1, v2), (v2, w2), (w2, v1)]:
        assert np.isclose(gap(K2, a, b), gap(K, a, b), atol=1e-9)
    # the diagonals move: that is the steering degree of freedom
    assert not np.isclose(gap(K2, w1, w2), gap(K, w1, w2), atol=1e-12)
    assert not np.isclose(gap(K2, v1, v2), gap(K, v1, v2), atol=1e-12)


def test_hextuple_moves_tracked_angle_continuously():
    K = random_convex_planar(10, 3)
    quad = _quad_for(K)
    w1 = quad[1]
    prev = interior_angles(K)[w1]
    for theta in np.linspace(0.0, 0.05, 6)[1:]:
        cur = interior_angles(apply_hextuple(K, quad, theta))[w1]
        assert abs(cur - prev) < 0.05
        prev = cur


# -- the planar hexagon that one reflection maps to itself ----------------------


def test_hexagon_fixed_by_nontrivial_reflection():
    # doubled triangle outline: reflecting the arc v0..v2 across the plane
    # through v0 and v2 that contains the x-axis returns the same point set
    s3 = np.sqrt(3.0)
    v = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [2.0, 0.0, 0.0],
        [1.5, s3 / 2, 0.0],
        [1.0, s3, 0.0],
        [0.5, s3 / 2, 0.0],
    ])
    K = validate_polygon(v)
    # mirror through v0, v2 with normal along +y maps v1 (on the axis) to
    # itself, so the reflected polygon is bit-identical: a nontrivial move
    # with a fixed point, which is why step noise alone cannot certify
    # aperiodicity of the chain
    point, normal = None, None
    for theta in np.linspace(0.0, np.pi, 721):
        p, nrm = reflection_plane(K, 0, 2, theta)
        if abs(nrm[1]) > 1.0 - 1e-12:
            point, normal = p, nrm
            break
    assert normal is not None
    K2 = apply_reflection(K, ReflectionMove(0, 2, theta))
    assert np.max(np.abs(K2.vertices - K.vertices)) < 1e-12


def test_thickness_drops_only_when_polygon_degenerates():
    # folding a regular polygon strictly decreases thickness for generic theta
    K = regular_polygon(12)
    t0 = thickness_value(K)
    K2 = apply_reflection(K, ReflectionMove(0, 6, 1.0))
    assert thickness_value(K2) < t0


def test_cross_and_norm_match_numpy_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b = rng.standard_normal((2, 3)) * 10.0 ** rng.integers(-8, 9, (2, 1))
        assert np.array_equal(_cross(a, b), np.cross(a, b))
        assert _norm(a) == np.linalg.norm(a)


# -- the reflection kernel against its first, all-numpy form --------------------


def _reference_reflection(K, move):
    """apply_reflection as first written: the axis frame from numpy 3-vectors
    (np.zeros seed vector, np.dot, np.linalg.norm, np.cross, np.cos/np.sin)
    and the forward arc as a fancy-index list into a copy of the vertices."""
    i, j, theta = move
    vi, vj = K.vertex(i), K.vertex(j)
    d = vj - vi
    norm = np.linalg.norm(d)
    if norm < 1e-9:
        raise DegenerateAxis("reference: axis endpoints coincide")
    u = d / norm
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        if abs(float(np.dot(e, u))) < 0.9:
            break
    b1 = e - float(np.dot(e, u)) * u
    b1 = b1 / np.linalg.norm(b1)
    b2 = np.cross(u, b1)
    normal = np.cos(theta) * b1 + np.sin(theta) * b2
    n = K.n
    idx = [(i % n + k) % n for k in range(1, (j - i) % n)]
    if not idx:
        return K
    v = np.array(K.vertices)
    w = v[idx] - vi
    v[idx] = v[idx] - 2.0 * (w @ normal)[..., None] * normal
    return KnotPolygon(v)


def _kernel_cases():
    """(polygon, move) pairs: random pairs with i < j and i > j, wrap-around
    and adjacent pairs, coincident endpoints, and axes whose first
    component lies within 1e-6 of the 0.9 seed-vector threshold."""
    rng = np.random.default_rng(2024)
    for c in range(3000):
        n = int(rng.integers(4, 40))
        v = rng.standard_normal((n, 3))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        kind = c % 6
        i = int(rng.integers(n))
        if kind == 0:                      # any ordered pair
            j = int(rng.integers(n))
        elif kind == 1:                    # wrap-around: i > j
            i = int(rng.integers(1, n))
            j = int(rng.integers(i))
        elif kind == 2:                    # adjacent, including (n - 1, 0)
            j = (i + 1) % n
        elif kind == 3:                    # coincident endpoints
            j = (i + int(rng.integers(2, n))) % n
            v[j] = v[i]
        else:                              # |u_0| near 0.9
            j = (i + int(rng.integers(2, n))) % n
            u0 = rng.choice([-1.0, 1.0]) * (0.9 + rng.uniform(-1e-6, 1e-6))
            rest = rng.standard_normal(2)
            rest *= np.sqrt(1.0 - u0 * u0) / np.linalg.norm(rest)
            v[j] = v[i] + rng.uniform(0.5, 2.0) * np.array([u0, *rest])
        yield KnotPolygon(v), ReflectionMove(i, j, theta)


def test_reflection_kernel_matches_reference_bit_for_bit():
    kinds = {"moved": 0, "identity": 0, "degenerate": 0, "near-seed": 0}
    for K, mv in _kernel_cases():
        try:
            want = _reference_reflection(K, mv)
        except DegenerateAxis:
            with pytest.raises(DegenerateAxis):
                apply_reflection(K, mv)
            kinds["degenerate"] += 1
            continue
        got = apply_reflection(K, mv)
        if want is K:
            assert got is K
            kinds["identity"] += 1
            continue
        assert np.array_equal(got.vertices, want.vertices), mv
        u = K.vertex(mv.j) - K.vertex(mv.i)
        u = u / np.linalg.norm(u)
        if abs(abs(u[0]) - 0.9) < 1e-6:
            kinds["near-seed"] += 1
        kinds["moved"] += 1
    assert min(kinds.values()) > 100, kinds
