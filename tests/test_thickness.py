import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_equilateral
from thickknots import thickness
from thickknots.mcmc import ChainConfig, run_chain
from thickknots.moves import ReflectionMove, apply_reflection
from thickknots.polygon import KnotPolygon, regular_polygon, validate_polygon
from thickknots.thickness import (
    doubly_critical_pairs,
    injectivity_radius,
    minrad,
    radius_via_tc,
    thickness_at_least,
    thickness_value,
)

REGULAR_10GON_THICKNESS = 0.15388417685876263


def regular_radius(n):
    # R of the regular n-gon is its curvature radius tan(interior/2)/2
    return 0.5 * np.tan(np.pi * (n - 2) / (2 * n))


def test_minrad_regular_polygon():
    K = regular_polygon(10)
    val, k = minrad(K)
    assert np.isclose(val, regular_radius(10), atol=1e-14)
    assert 0 <= k < 10


def test_regular_10gon_thickness_closed_form():
    K = regular_polygon(10)
    assert np.isclose(thickness_value(K), REGULAR_10GON_THICKNESS, atol=1e-15)
    assert np.isclose(thickness_value(K), regular_radius(10) / 10.0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 20])
def test_regular_polygon_radius_is_curvature_limited(n):
    K = regular_polygon(n)
    rep = injectivity_radius(K)
    assert np.isclose(rep.injectivity_radius, regular_radius(n), atol=1e-12)
    assert np.isclose(rep.thickness, regular_radius(n) / n, atol=1e-12)
    assert rep.arclength == n
    if rep.dcsd is not None:
        assert rep.dcsd / 2.0 >= rep.minrad - 1e-12


def test_report_fields_consistent(square):
    rep = injectivity_radius(square)
    assert rep.injectivity_radius == min(
        rep.minrad, rep.dcsd / 2.0 if rep.dcsd is not None else np.inf
    )
    assert np.isclose(rep.thickness, rep.injectivity_radius / rep.arclength)


def test_square_dcsd_is_side_distance(square):
    # opposite unit edges at distance 1, curvature radius tan(pi/4)/2 = 1/2
    rep = injectivity_radius(square)
    assert np.isclose(rep.minrad, 0.5, atol=1e-14)
    assert np.isclose(rep.dcsd, 1.0, atol=1e-12)
    assert np.isclose(rep.injectivity_radius, 0.5, atol=1e-14)


def test_pentagram_is_not_embedded():
    # unit-edge star polygon: closed, equilateral, with crossing edges
    head = 4.0 * np.pi / 5.0 * np.arange(5)
    e = np.column_stack([np.cos(head), np.sin(head), np.zeros(5)])
    v = np.zeros((5, 3))
    v[1:] = np.cumsum(e[:-1], axis=0)
    K = validate_polygon(v)
    assert not K.embedded


# -- brute-force oracle for the doubly critical distance -----------------------


def _dcsd_oracle(K, grid=1000):
    """Dense sampling of the self-distance between non-adjacent edge pairs,
    refined near the coarse minimum.  Lower bound on accuracy ~ (1/grid)^2
    curvature error, refined to ~1e-10."""
    V = K.vertices
    n = K.n
    best = np.inf
    arg = None
    ts = np.linspace(0.0, 1.0, 64)
    E = np.roll(V, -1, axis=0) - V
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % n in (0, 1) or (i - j) % n == 1:
                continue
            A = V[i][None, :] + ts[:, None] * E[i][None, :]
            B = V[j][None, :] + ts[:, None] * E[j][None, :]
            D = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
            k = np.unravel_index(np.argmin(D), D.shape)
            if D[k] < best:
                best = float(D[k])
                arg = (i, j, ts[k[0]], ts[k[1]])
    # golden-section style refinement on the winning pair
    i, j, s0, t0 = arg
    lo_s, hi_s = max(0.0, s0 - 0.05), min(1.0, s0 + 0.05)
    lo_t, hi_t = max(0.0, t0 - 0.05), min(1.0, t0 + 0.05)
    for _ in range(40):
        ss = np.linspace(lo_s, hi_s, 17)
        tt = np.linspace(lo_t, hi_t, 17)
        A = V[i][None, :] + ss[:, None] * E[i][None, :]
        B = V[j][None, :] + tt[:, None] * E[j][None, :]
        D = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
        k = np.unravel_index(np.argmin(D), D.shape)
        best = float(D[k])
        cs = (hi_s - lo_s) / 16
        ct = (hi_t - lo_t) / 16
        lo_s = max(0.0, ss[k[0]] - 2 * cs)
        hi_s = min(1.0, ss[k[0]] + 2 * cs)
        lo_t = max(0.0, tt[k[1]] - 2 * ct)
        hi_t = min(1.0, tt[k[1]] + 2 * ct)
    return best


@pytest.mark.parametrize("seed", range(25))
def test_dcsd_matches_brute_force(seed):
    K = random_equilateral(8, seed)
    pairs = doubly_critical_pairs(K)
    oracle = _dcsd_oracle(K)
    if pairs:
        # the doubly critical minimum can only be the global separation or
        # larger; when a pair realizes the global min the values agree
        assert pairs[0].distance >= oracle - 1e-7
        rep = injectivity_radius(K)
        assert rep.dcsd_pair == pairs[0]
        assert rep.injectivity_radius <= min(rep.minrad, oracle / 2.0) + 1e-7
    # when the radius is distance-limited the oracle must confirm it
    rep = injectivity_radius(K)
    if rep.dcsd is not None and rep.dcsd / 2.0 < rep.minrad - 1e-9:
        assert np.isclose(rep.dcsd, oracle, atol=1e-6)


# -- independent total-curvature route ----------------------------------------


@pytest.mark.parametrize("n,seed", [(6, 0), (6, 1), (8, 2), (8, 3), (10, 4), (12, 5)])
def test_radius_routes_agree_on_random_polygons(n, seed):
    K = random_equilateral(n, seed)
    rep = injectivity_radius(K)
    assert abs(rep.injectivity_radius - radius_via_tc(K)) <= 1e-9


@pytest.mark.parametrize("n", [3, 5, 10, 16])
def test_radius_routes_agree_on_regular_polygons(n):
    K = regular_polygon(n)
    assert abs(injectivity_radius(K).injectivity_radius - radius_via_tc(K)) <= 1e-12


def test_thickness_value_matches_report():
    # `sample --stats` writes the report's thickness into the record header
    # where plain `sample` writes thickness_value; the two must be the same bits
    polygons = [random_equilateral(7, seed) for seed in range(10)]
    polygons += [case.values[0] for case in _threshold_cases()]
    for K in polygons:
        assert injectivity_radius(K).thickness == thickness_value(K)


def test_thickness_value_is_computed_once_per_polygon(monkeypatch):
    K = random_equilateral(12, 3)
    calls = []
    radii = thickness._curvature_radii

    def counting(P):
        calls.append(P)
        return radii(P)

    monkeypatch.setattr(thickness, "_curvature_radii", counting)
    first = thickness_value(K)
    assert thickness_value(K) == first
    assert len(calls) == 1
    # a fresh polygon on the same vertices recomputes, to the same bits
    assert thickness_value(KnotPolygon(K.vertices)) == first
    assert len(calls) == 2


def _threshold_cases():
    cases = [pytest.param(random_equilateral(n, seed), id=f"random-{n}-{seed}")
             for n in (4, 6, 10, 32) for seed in range(4)]
    # even regular polygons have parallel opposite edges
    cases += [pytest.param(regular_polygon(n), id=f"regular-{n}") for n in (10, 32)]
    # on these moved squares the parallel sides' distance undercuts the
    # corners' curvature radius by an ulp, so the parallel branch decides
    for seed in (17, 18, 24):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V = regular_polygon(4).vertices @ q.T + rng.standard_normal(3)
        cases.append(pytest.param(validate_polygon(V), id=f"moved-square-{seed}"))
    return cases


@pytest.mark.parametrize("K", _threshold_cases())
def test_thickness_at_least_is_exactly_the_comparison(K):
    th = thickness_value(K)
    for t in (th, np.nextafter(th, -np.inf), np.nextafter(th, np.inf),
              0.0, 0.5 * th, 2.0 * th):
        assert thickness_at_least(K, t) == (thickness_value(K) >= t), t


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.1, max_value=3.0))
def test_reflection_never_beats_regular_thickness(seed, theta):
    # the regular polygon maximizes thickness among states we can reach
    K = regular_polygon(9)
    t0 = thickness_value(K)
    K2 = apply_reflection(K, ReflectionMove(0, 4, theta))
    assert thickness_value(K2) <= t0 + 1e-12


def _exact(x):
    """Exact text of a report value: floats as float.hex, tuples by item."""
    if isinstance(x, tuple):
        return "(" + ",".join(_exact(v) for v in x) + ")"
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(x)


def test_reports_match_golden_digest():
    # sha256 over every ThicknessReport field, dcsd_pair's kind, locations
    # and distance included, for the threshold cases and chain samples at
    # n = 32 and 64; any change to a value or to which pair is the witness
    # moves the digest
    polygons = [case.values[0] for case in _threshold_cases()]
    for n, t, seed in ((32, 0.02, 7), (64, 0.01, 8)):
        cfg = ChainConfig(n=n, t=t, seed=seed, steps=300, stride=30)
        polygons += [K for _, K, _ in run_chain(cfg)]
    h = hashlib.sha256()
    for K in polygons:
        h.update(_exact(dataclasses.astuple(injectivity_radius(K))).encode())
    assert h.hexdigest() == (
        "161d253065833c792de2af8c655066046e499871da36293570e5c4d7e790ab9c")
