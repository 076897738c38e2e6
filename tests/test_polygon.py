import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_equilateral
from thickknots.errors import EdgeLengthViolation, TooFewVertices
from thickknots.polygon import (
    EPS_GEOM,
    _point_segment_distance,
    convex_hull_2d,
    interior_angles,
    regular_angle,
    regular_polygon,
    turning_angles,
    validate_polygon,
)


def test_validate_rejects_short_input():
    with pytest.raises(TooFewVertices):
        validate_polygon(np.zeros((2, 3)))


def test_validate_rejects_bad_edge():
    v = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1.5, 0]])
    with pytest.raises(EdgeLengthViolation) as ei:
        validate_polygon(v)
    assert "edge" in str(ei.value)


def test_validate_rejects_nan():
    v = np.array([[0.0, 0, 0], [1.0, 0, 0], [np.nan, 1.0, 0]])
    with pytest.raises(EdgeLengthViolation):
        validate_polygon(v)


def test_unit_square_is_valid_and_embedded(square):
    assert square.n == 4
    assert square.embedded
    assert np.allclose(square.edge_lengths(), 1.0)


def test_regular_polygon_geometry():
    K = regular_polygon(7)
    r = 1.0 / (2.0 * np.sin(np.pi / 7))
    assert np.allclose(np.linalg.norm(K.vertices[:, :2], axis=1), r)
    assert np.allclose(K.edge_lengths(), 1.0)
    assert K.embedded


@pytest.mark.parametrize("n", [3, 4, 6, 10, 17])
def test_interior_angles_of_regular_polygon(n):
    K = regular_polygon(n)
    assert np.allclose(interior_angles(K), regular_angle(n), atol=1e-12)
    # closed convex planar curve: total turning is exactly 2 pi
    assert np.isclose(np.sum(turning_angles(K)), 2.0 * np.pi, atol=1e-12)


# -- convex hull against a brute-force oracle --------------------------------


def _hull_oracle(pts):
    """All points that lie on the boundary of the convex hull: p is on the
    boundary iff some halfplane through p contains every point."""
    pts = np.asarray(pts, float)
    n = len(pts)
    on = np.zeros(n, dtype=bool)
    for k in range(n):
        for ang in np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False):
            nrm = np.array([np.cos(ang), np.sin(ang)])
            if np.all((pts - pts[k]) @ nrm <= 1e-9):
                on[k] = True
                break
    return on


@pytest.mark.parametrize("seed", range(6))
def test_hull_boundary_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((12, 2))
    hull = convex_hull_2d(pts)
    oracle = _hull_oracle(pts)
    assert np.array_equal(hull.boundary_mask, oracle)


def _per_point_boundary(hull, pts):
    """The boundary mask, one point and one hull edge at a time."""
    v = hull.vertices
    m = len(v)
    mask = []
    for p in pts:
        if m == 1:
            d = float(np.linalg.norm(p - v[0]))
        else:
            d = min(_point_segment_distance(p, v[e], v[(e + 1) % m])
                    for e in range(m if m > 2 else 1))
        mask.append(d <= EPS_GEOM)
    return np.array(mask)


def _near_boundary_points(rng, k):
    # random points, plus points on and just off the segments between
    # random pairs of them, so many lie on hull edges or near the band
    pts = rng.standard_normal((k, 2))
    i, j = rng.integers(0, k, (2, 3 * k))
    s = rng.random(3 * k)[:, None]
    on = pts[i] + s * (pts[j] - pts[i])
    off = rng.choice([0.0, 3e-10, -3e-10, 3e-9, -3e-9], (3 * k, 2))
    return np.vstack([pts, on + off])


@pytest.mark.parametrize("seed", range(20))
def test_hull_boundary_mask_matches_per_point_distances(seed):
    rng = np.random.default_rng(seed)
    line = rng.standard_normal(2)
    sets = [
        _near_boundary_points(rng, 3 + seed),
        np.outer(rng.standard_normal(8), line) + rng.standard_normal(2),
        np.repeat(_near_boundary_points(rng, 4), 3, axis=0),
        np.repeat(rng.standard_normal((1, 2)), 1 + seed % 3, axis=0),
        rng.standard_normal((1, 2)) + rng.choice([0.0, 5e-10, 5e-9], (4, 2)),
    ]
    for pts in sets:
        hull = convex_hull_2d(pts)
        assert np.array_equal(hull.boundary_mask, _per_point_boundary(hull, pts))


def test_hull_handles_collinear_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    hull = convex_hull_2d(pts)
    # the midpoint of the bottom edge is on the boundary but not a vertex
    assert hull.boundary_mask[2]
    assert len(hull.vertices) == 3


def test_hull_is_convex_and_counterclockwise():
    rng = np.random.default_rng(42)
    pts = rng.standard_normal((40, 2))
    hull = convex_hull_2d(pts)
    V = hull.vertices
    m = len(V)
    for k in range(m):
        a, b, c = V[k], V[(k + 1) % m], V[(k + 2) % m]
        cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert cr > 0.0


# -- property tests -----------------------------------------------------------


@given(st.integers(min_value=3, max_value=40))
def test_regular_polygon_turning_sums_to_two_pi(n):
    K = regular_polygon(n)
    assert np.isclose(np.sum(turning_angles(K)), 2.0 * np.pi, atol=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_random_polygons_validate_and_exceed_two_pi(n, seed):
    K = random_equilateral(n, seed)
    assert np.max(np.abs(K.edge_lengths() - 1.0)) <= 1e-9
    # Fenchel: total curvature of any closed curve is at least 2 pi
    assert np.sum(turning_angles(K)) >= 2.0 * np.pi - 1e-9
