import hashlib

import numpy as np
import pytest

from conftest import random_equilateral
from thickknots.analysis import (
    _diagram,
    _segment_crossings,
    alexander_determinant,
    radius_of_gyration,
)
from thickknots.errors import NoGenericProjection
from thickknots.mcmc import ChainConfig, run_chain
from thickknots.moves import rotate_points
from thickknots.polygon import KnotPolygon, regular_polygon, validate_polygon


def test_gyration_regular_polygon():
    # all vertices at circumradius 1/(2 sin(pi/n)) from the centroid
    for n in (3, 6, 10):
        K = regular_polygon(n)
        assert np.isclose(radius_of_gyration(K), 1.0 / (2.0 * np.sin(np.pi / n)),
                          atol=1e-13)


def test_gyration_unit_square(square):
    # vertices at distance sqrt(1/2) from the center
    assert np.isclose(radius_of_gyration(square), np.sqrt(0.5), atol=1e-13)


def test_gyration_translation_invariant():
    K = random_equilateral(8, 0)
    v = K.vertices + np.array([3.0, -1.0, 2.0])
    assert np.isclose(radius_of_gyration(KnotPolygon(v)), radius_of_gyration(K),
                      atol=1e-12)


# -- 2D segment crossing against a brute-force oracle ---------------------------


def _segment_crossing(p, r, q, s, eps):
    """The vectorized classifier on one pair: (t, u) for a transverse
    crossing, None when disjoint, False when non-generic."""
    scale = max(np.linalg.norm(r), np.linalg.norm(s), 1e-30)
    hit, bad, t, u = _segment_crossings(p[None], r[None], q[None], s[None],
                                        np.array([scale]), eps)
    if bad[0]:
        return False
    return (t[0], u[0]) if hit[0] else None


def _crossing_oracle(p, r, q, s, grid=2001):
    """Dense sampling: do the open segments come within resolution of each
    other, and at roughly what parameters?"""
    ts = np.linspace(0.0, 1.0, grid)
    A = p[None, :] + ts[:, None] * (r - p)[None, :]
    B = q[None, :] + ts[:, None] * (s - q)[None, :]
    D = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    k = np.unravel_index(np.argmin(D), D.shape)
    if D[k] > 2.0 / grid:
        return None
    return ts[k[0]], ts[k[1]]


@pytest.mark.parametrize("seed", range(30))
def test_segment_crossing_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    p, r, q, s = rng.random((4, 2))
    got = _segment_crossing(p, r - p, q, s - q, 1e-9)
    want = _crossing_oracle(p, r, q, s)
    if got is None or got is False:
        assert want is None or min(want) < 1e-2 or max(want) > 1 - 1e-2 \
            or abs((r - p)[0] * (s - q)[1] - (r - p)[1] * (s - q)[0]) < 1e-6
    else:
        t, u = got
        assert want is not None
        assert abs(t - want[0]) < 2e-3 and abs(u - want[1]) < 2e-3


def test_segment_crossing_disjoint():
    p, q = np.array([0.0, 0.0]), np.array([0.0, 1.0])
    r = s = np.array([1.0, 0.0])
    assert _segment_crossing(p, r, q, s, 1e-9) is None


def test_segment_crossing_transverse():
    p, r = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    q, s = np.array([0.0, 1.0]), np.array([1.0, -1.0])
    t, u = _segment_crossing(p, r, q, s, 1e-9)
    assert np.isclose(t, 0.5) and np.isclose(u, 0.5)


def test_segment_crossing_shared_endpoint_is_degenerate():
    p, r = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    q, s = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert _segment_crossing(p, r, q, s, 1e-9) is False


def test_segment_crossing_parallel():
    p, r = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    assert _segment_crossing(p, r, np.array([0.5, 1.0]), r, 1e-9) is None
    assert _segment_crossing(p, r, np.array([0.5, 0.0]), r, 1e-9) is False


# -- crossing diagrams -------------------------------------------------------------


def test_diagram_edge_cases():
    # the octagon seen edge-on projects onto a segment: not generic
    assert _diagram(regular_polygon(8), (1.0, 0.0, 0.0)) is None
    # a triangle has no non-adjacent edges, a quadrilateral's cannot cross
    assert _diagram(regular_polygon(3), (0.0, 0.0, 1.0)) == []
    assert _diagram(regular_polygon(4), (0.0, 0.0, 1.0)) == []


def _golden_polygons():
    polygons = []
    for n in (10, 32, 64):
        for t in (0.0, 0.02):
            cfg = ChainConfig(n=n, t=t, seed=n + int(1000 * t), steps=150, stride=50)
            polygons += [K for _, K, _ in run_chain(cfg)]
    polygons += [random_equilateral(n, seed) for n in (7, 20) for seed in range(3)]
    return polygons


def test_diagrams_match_golden_digest():
    # sha256 over |Delta(-1)| and every crossing (edges, parameters as float
    # hex, over flag) of 24 polygons at +z and two seeded directions; any
    # change to the crossing classification or its order moves the digest
    rng = np.random.default_rng(404)
    directions = [None, rng.standard_normal(3), rng.standard_normal(3)]
    h = hashlib.sha256()
    for K in _golden_polygons():
        for d in directions:
            try:
                det = alexander_determinant(K, start_direction=d)
            except NoGenericProjection:
                det = None
            h.update(f"det={det};".encode())
            crossings = _diagram(K, np.array([0.0, 0.0, 1.0]) if d is None else d)
            if crossings is None:
                h.update(b"non-generic;")
                continue
            for i, t, j, u, over in crossings:
                h.update(f"{i} {float(t).hex()} {j} {float(u).hex()} {int(over)};".encode())
    assert h.hexdigest() == "953d0c7a26d4480c236ae999f20dca57d2a66b392ecab6eb3367b307939e93be"


# -- Alexander determinant -------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_unknot_determinant_is_one(n):
    assert alexander_determinant(regular_polygon(n)) == 1


def test_folded_unknot_determinant_is_one():
    from thickknots.moves import ReflectionMove, apply_reflection

    K = regular_polygon(10)
    for k, theta in [(0, 0.9), (3, 2.1), (5, 0.4)]:
        K = apply_reflection(K, ReflectionMove(k, k + 4, theta))
    assert alexander_determinant(K) == 1


def test_trefoil_determinant(trefoil):
    assert alexander_determinant(trefoil) == 3


def test_figure_eight_determinant(figure_eight):
    assert alexander_determinant(figure_eight) == 5


def test_determinant_is_projection_invariant(trefoil, figure_eight):
    rng = np.random.default_rng(7)
    for K, want in ((trefoil, 3), (figure_eight, 5)):
        for _ in range(4):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            assert alexander_determinant(K, start_direction=d) == want


def test_determinant_is_rotation_invariant(trefoil):
    axis = np.array([1.0, 2.0, 0.5])
    axis /= np.linalg.norm(axis)
    v = rotate_points(np.array(trefoil.vertices), np.zeros(3), axis, 1.1)
    assert alexander_determinant(validate_polygon(v)) == 3


def test_determinant_is_odd_on_random_samples():
    # |det(-1)| of a knot is always odd
    for seed in range(8):
        K = random_equilateral(7, seed)
        if K.embedded:
            assert alexander_determinant(K) % 2 == 1
