import sys

import numpy as np
import pytest

from conftest import random_convex_planar, random_equilateral
from thickknots.canonicalize import (
    StageKind,
    canonicalize,
    flatten,
    incidence,
    mu,
    regularize,
)
from thickknots.errors import AlreadyRegular, NotCoplanarizable
from thickknots.moves import ReflectionMove, apply_reflection
from thickknots.polygon import interior_angles, regular_angle, regular_polygon, validate_polygon
from thickknots.thickness import thickness_value


def test_mu_unit_square(square):
    # four unit sides plus two sqrt(2) diagonals
    assert np.isclose(mu(square), 4.0 + 2.0 * np.sqrt(2.0), atol=1e-12)


def test_mu_grows_under_outward_reflection():
    # push an arc of a flat convex polygon across a supporting plane: mu
    # strictly increases because every projected pairwise distance cannot drop
    K = regular_polygon(8)
    v = np.array(K.vertices)
    # fold two vertices inward first so there is a supporting plane to cross
    v[2, :2] = 0.6 * v[2, :2]
    m0 = mu(validate_polygon_relaxed(v))
    v2 = np.array(v)
    v2[2, :2] = K.vertices[2, :2]
    assert mu(validate_polygon_relaxed(v2)) > m0


def validate_polygon_relaxed(v):
    from thickknots.polygon import KnotPolygon

    return KnotPolygon(np.asarray(v, float))


def test_incidence_zero_for_embedded_flat_convex():
    assert incidence(regular_polygon(9)) == 0


def test_incidence_counts_projected_crossings():
    # a 3D polygon whose projection has crossings scores them even though
    # the space curve is embedded
    K = random_equilateral(8, 12)
    # count is projection data only: recompute after spinning about z
    from thickknots.moves import rotate_points
    from thickknots.polygon import KnotPolygon

    v = rotate_points(np.array(K.vertices), np.zeros(3),
                      np.array([0.0, 0.0, 1.0]), 0.7)
    assert incidence(KnotPolygon(v)) == incidence(K)
    assert incidence(K) >= 0


def test_flatten_regular_polygon_is_trivial():
    K, entries = flatten(regular_polygon(10))
    z = K.vertices[:, 2]
    assert z.max() - z.min() < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flatten_produces_planar_convex(seed):
    K0 = random_equilateral(6, seed)
    K, entries = flatten(K0)
    z = K.vertices[:, 2]
    assert z.max() - z.min() < 1e-8
    # convex in projection: hull boundary contains every vertex
    from thickknots.polygon import convex_hull_2d

    hull = convex_hull_2d(K.vertices[:, :2])
    assert hull.boundary_mask.all()
    # thickness never dropped along the trace
    for e in entries:
        assert e.thickness_after >= e.thickness_before - 1e-9


def test_trace_entries_have_stage_kinds():
    K0 = random_equilateral(6, 3)
    trace = canonicalize(K0)
    kinds = {e.stage for e in trace.entries}
    assert kinds <= set(StageKind)
    assert trace.final_rms <= 1e-6


def test_regularize_requires_flat_input():
    K = random_convex_planar(8, 4)
    K2, entries = regularize(K)
    dev = np.abs(interior_angles(K2) - regular_angle(8))
    assert dev.max() <= 1e-6


def test_regularize_noop_on_regular():
    K = regular_polygon(7)
    K2, entries = regularize(K)
    assert entries == []
    assert np.max(np.abs(K2.vertices - K.vertices)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_canonicalize_random_hexagons(seed):
    K0 = random_equilateral(6, 100 + seed)
    trace = canonicalize(K0)
    assert trace.final_rms <= 1e-6
    for e in trace.entries:
        assert e.thickness_after >= e.thickness_before - 1e-9
    # final polygon is genuinely the flat regular hexagon
    dev = np.abs(interior_angles(trace.final) - regular_angle(6))
    assert dev.max() <= 1e-6


def test_canonicalize_folded_regular_polygon():
    # start from a known-thickness state pushed out of plane
    K = apply_reflection(regular_polygon(8), ReflectionMove(0, 3, 0.8))
    t0 = thickness_value(K)
    trace = canonicalize(K)
    assert trace.final_rms <= 1e-6
    assert thickness_value(trace.final) >= t0 - 1e-9


def test_canonicalize_larger_polygon():
    K0 = random_equilateral(10, 77)
    trace = canonicalize(K0)
    assert trace.final_rms <= 1e-6


def test_root_search_survives_an_unusable_bisection_probe(monkeypatch):
    # make the first midpoint of the angle bisection an unusable probe: the
    # bracket end moves there, and the search must go on without reading a
    # deviation for it
    canon = sys.modules["thickknots.canonicalize"]
    real = canon.apply_hextuple
    unusable = []

    def flaky(K, quad, theta):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "probe":
            search = frame
            while search.f_code.co_name != "_quad_root_search":
                search = search.f_back
            if not unusable and search.f_locals.get("m_t") == theta:
                unusable.append(theta)
            if theta in unusable:
                raise NotCoplanarizable(float("nan"), "injected")
        return real(K, quad, theta)

    monkeypatch.setattr(canon, "apply_hextuple", flaky)
    trace = canonicalize(random_equilateral(6, 8))
    assert unusable
    assert trace.final_rms <= 1e-6
