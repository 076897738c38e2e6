import hashlib
import itertools
import struct
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
from thickknots.errors import AlreadyRegular, NotCoplanarizable, PipelineStall
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


# sha256 over the final vertices (float64, little-endian) and, per trace
# entry, the thickness before and after (two little-endian doubles) and the
# UTF-8 description; any change to a move, a search or a tie-break that
# alters a canonicalization moves these digests
GOLDEN_CANONICALIZATIONS = [
    (6, 5, "4e3b9a3733211cbae0705a1802835662a880b22470650c899be438e21bc06183"),
    (6, 6, "ebde9829aaf23f479c7003afb25d182676fa6343e890d1743b2f8bc85fa65005"),
    (6, 7, "ef926147d4c8f1d443cf87b5b370622e284bef45f14403b377008d62ba31f7f8"),
    (6, 8, "d9de29cea41a080ed952e6bd7541afd5690f19b968120eac48cc313aa3b1a726"),
    (6, 9, "4eac34c2fd0ac60d27236e78c37be18b6b82e80b0f5b54dee75993020128e385"),
    (20, 6, "ba27b257adcb41a70019eee5d6a05adf773ad6fc2b1b857a6bbdcef03efa544a"),
    (10, 77, "912aaec3a7ac9e59749884aaf9baa2a91b1720c2b6251bfca898deff0ac8336e"),
]


@pytest.mark.parametrize("n,seed,digest", GOLDEN_CANONICALIZATIONS)
def test_canonicalize_matches_golden_digest(n, seed, digest):
    trace = canonicalize(random_equilateral(n, seed))
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.final.vertices, dtype="<f8").tobytes())
    for e in trace.entries:
        h.update(struct.pack("<dd", e.thickness_before, e.thickness_after))
        h.update(e.description.encode())
    assert h.hexdigest() == digest


def test_root_search_probes_each_theta_once(monkeypatch):
    canon = sys.modules["thickknots.canonicalize"]
    real_hextuple = canon.apply_hextuple
    real_search = canon._quad_root_search
    searches = []
    active = []

    def recording_hextuple(K, quad, theta):
        if active:
            active[-1].append(float(theta))
        return real_hextuple(K, quad, theta)

    def recording_search(*args):
        thetas = []
        searches.append(thetas)
        active.append(thetas)
        try:
            return real_search(*args)
        finally:
            active.pop()

    monkeypatch.setattr(canon, "apply_hextuple", recording_hextuple)
    monkeypatch.setattr(canon, "_quad_root_search", recording_search)
    trace = canonicalize(random_equilateral(6, 9))
    assert trace.final_rms <= 1e-6
    assert sum(len(thetas) for thetas in searches) > 1000
    for thetas in searches:
        assert len(thetas) == len(set(thetas))


def _quads_for_signs(monkeypatch, signs):
    # stand the angle deviations in by a sign pattern: -1 small, +1 large
    canon = sys.modules["thickknots.canonicalize"]
    n = len(signs)
    reg = regular_angle(n)
    angles = reg + 1e-3 * np.asarray(signs, dtype=float)
    monkeypatch.setattr(canon, "interior_angles", lambda K: angles)
    return canon._candidate_quads(regular_polygon(n))


def test_candidate_quads_stall_names_a_missing_second_large_vertex(monkeypatch):
    with pytest.raises(PipelineStall, match="no second large vertex"):
        _quads_for_signs(monkeypatch, [-1, 1, 0, 0, -1, 0])


def test_candidate_quads_stall_names_a_missing_second_small_vertex(monkeypatch):
    with pytest.raises(PipelineStall, match="no second small vertex"):
        _quads_for_signs(monkeypatch, [-1, 1, 0, 1, 0, 0])


def test_candidate_quads_always_find_a_first_pair(monkeypatch):
    # once small and large vertices both exist, some small v1 reaches a
    # large w1 past regular vertices only, so a stall can only name a
    # missing second vertex
    stalls = set()
    for signs in itertools.product((-1, 0, 1), repeat=6):
        if -1 not in signs or 1 not in signs:
            continue
        try:
            quads = _quads_for_signs(monkeypatch, signs)
        except PipelineStall as exc:
            stalls.add(str(exc).split(": ", 1)[1])
        else:
            for v1, w1, v2, w2 in quads:
                assert signs[v1] == signs[v2] == -1
                assert signs[w1] == signs[w2] == 1
    assert stalls == {"no second large vertex", "no second small vertex"}
