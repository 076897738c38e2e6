"""End-to-end acceptance checks, one per headline behavior.

Each test prints a single PASS/FAIL line (run with -s or check captured
output) and enforces both the numeric tolerance and its runtime budget.
"""

import time

import numpy as np
import pytest

import conftest
from conftest import FIGURE_EIGHT_8, TREFOIL_6, random_equilateral
from thickknots.analysis import alexander_determinant, radius_of_gyration
from thickknots.canonicalize import apply_move, canonicalize, find_edge_pair_move
from thickknots.mcmc import Chain, ChainConfig, diagnostics, run_chain
from thickknots.moves import ReflectionMove, apply_reflection
from thickknots.polygon import (
    convex_hull_2d,
    regular_polygon,
    turning_angles,
    validate_polygon,
)
from thickknots.thickness import (
    doubly_critical_pairs,
    injectivity_radius,
    minrad,
    radius_via_tc,
    thickness_value,
)

pytestmark = pytest.mark.acceptance


def _report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_regular_decagon_thickness():
    thickness_value(regular_polygon(10))  # warm caches before timing
    dt = np.inf
    for _ in range(20):  # best of 20: scheduler jitter dwarfs the call itself
        K = regular_polygon(10)  # a fresh polygon: thickness is kept on each one
        t0 = time.perf_counter()
        th = thickness_value(K)
        dt = min(dt, time.perf_counter() - t0)
    ok = abs(th - 0.1539) <= 2e-4 and dt < 1e-3
    _report(1, "regular decagon thickness", ok,
            f"thickness={th:.6f} (target 0.1539±2e-4), runtime={dt * 1e3:.3f} ms")


def test_criterion_2_radius_route_equivalence():
    t0 = time.perf_counter()
    cfg = ChainConfig(n=8, t=0.0, seed=1234, steps=1000)
    worst = 0.0
    count = 0
    for _, K, _ in run_chain(cfg):
        gap = abs(injectivity_radius(K).injectivity_radius - radius_via_tc(K))
        worst = max(worst, gap)
        count += 1
    dt = time.perf_counter() - t0
    ok = count == 1000 and worst <= 1e-9 and dt < 60.0
    _report(2, "dual-route radius equivalence", ok,
            f"{count} random 8-gons, max |R - R_tc| = {worst:.3g}, runtime={dt:.1f}s")


def test_criterion_3_canonicalization_soundness():
    t0 = time.perf_counter()
    worst_rms = 0.0
    worst_drop = 0.0
    cases = [(6, s) for s in range(100)] + [(20, s) for s in range(25)]
    for n, seed in cases:
        trace = canonicalize(random_equilateral(n, seed))
        worst_rms = max(worst_rms, trace.final_rms)
        for e in trace.entries:
            worst_drop = max(worst_drop, e.thickness_before - e.thickness_after)
    dt = time.perf_counter() - t0
    ok = worst_rms <= 1e-6 and worst_drop <= 1e-9 and dt < 600.0
    _report(3, "canonicalization soundness", ok,
            f"125 polygons, max rms={worst_rms:.3g}, max thickness drop="
            f"{worst_drop:.3g}, runtime={dt:.1f}s")


def test_criterion_4_chain_soundness():
    t0 = time.perf_counter()
    cfg = ChainConfig(n=16, t=0.005, seed=99, steps=100_000, stride=100)
    ch = Chain(cfg)
    min_th = np.inf
    tail = []
    for _, K, out in ch.run():
        min_th = min(min_th, thickness_value(K))
        tail.append(K.vertices.copy())
    drift = float(np.max(np.abs(ch.state.edge_lengths() - 1.0)))
    # identical rerun must be bit-identical
    tail2 = [K.vertices.copy() for _, K, _ in Chain(cfg).run()]
    identical = len(tail) == len(tail2) and all(
        np.array_equal(a, b) for a, b in zip(tail, tail2)
    )
    dt = time.perf_counter() - t0
    ok = (min_th >= cfg.t - 1e-12 and drift <= 1e-8 and ch.audits >= 1
          and identical and dt < 600.0)
    _report(4, "chain soundness", ok,
            f"min sample thickness={min_th:.6f} (bound {cfg.t}), edge drift="
            f"{drift:.3g}, audits={ch.audits}, rerun identical={identical}, "
            f"runtime={dt:.1f}s")


def test_criterion_5_move_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_inv = 0.0
    worst_edge = 0.0
    K = regular_polygon(9)
    for _ in range(10_000):
        i = int(rng.integers(9))
        j = (i + int(rng.integers(2, 8))) % 9
        mv = ReflectionMove(i, j, float(rng.uniform(0, 2 * np.pi)))
        K1 = apply_reflection(K, mv)
        worst_edge = max(worst_edge, float(np.max(np.abs(K1.edge_lengths() - 1.0))))
        K2 = apply_reflection(K1, mv)
        worst_inv = max(worst_inv, float(np.max(np.abs(K2.vertices - K.vertices))))
        K = K1  # keep wandering through the state space

    # supporting-plane reflections never decrease thickness
    checked = 0
    worst_drop = 0.0
    seed = 0
    while checked < 500:
        P = random_equilateral(int(6 + seed % 5), 10_000 + seed)
        seed += 1
        for _ in range(40):
            mv = find_edge_pair_move(P)
            if mv is None:
                break
            th0 = thickness_value(P)
            P = apply_move(P, mv)
            worst_drop = max(worst_drop, th0 - thickness_value(P))
            checked += 1
            if checked >= 500:
                break
    dt = time.perf_counter() - t0
    ok = (worst_inv <= 1e-12 and worst_edge <= 1e-12 and worst_drop <= 1e-9
          and dt < 60.0)
    _report(5, "move algebra", ok,
            f"10^4 involutions (max dev {worst_inv:.3g}), max edge dev "
            f"{worst_edge:.3g}, {checked} supporting-plane reflections (max "
            f"thickness drop {worst_drop:.3g}), runtime={dt:.1f}s")


def test_criterion_6_two_start_ergodicity():
    t0 = time.perf_counter()
    rg2 = lambda K: radius_of_gyration(K) ** 2

    # second start: a random thick decagon reached by the chain itself and
    # verified canonicalizable back to the regular decagon
    warm = ChainConfig(n=10, t=0.01, seed=555, steps=5000)
    for _, K, _ in run_chain(warm):
        pass
    start2 = K
    assert canonicalize(start2).final_rms <= 1e-6

    stats = []
    for seed, start in ((1, None), (2, start2)):
        cfg = ChainConfig(n=10, t=0.01, seed=seed, steps=200_000, stride=100,
                          start=start)
        xs = [rg2(K) for _, K, _ in run_chain(cfg)]
        stats.append(diagnostics(xs))
    (m1, se1, _), (m2, se2, _) = stats
    se = float(np.hypot(se1, se2))
    dt = time.perf_counter() - t0
    ok = abs(m1 - m2) <= 3.0 * se and dt < 900.0
    _report(6, "two-start ergodicity", ok,
            f"mean Rg^2 = {m1:.4f}±{se1:.4f} vs {m2:.4f}±{se2:.4f}, "
            f"|diff| = {abs(m1 - m2):.4f} <= 3*{se:.4f}, runtime={dt:.1f}s")


def test_criterion_7_thin_decagon_fraction():
    t0 = time.perf_counter()
    cfg = ChainConfig(n=10, t=0.0, seed=777, steps=1_000_000, stride=100)
    thin = 0
    total = 0
    for _, K, _ in run_chain(cfg):
        total += 1
        if thickness_value(K) < 0.01:
            thin += 1
    frac = thin / total
    dt = time.perf_counter() - t0
    ok = total == 10_000 and 0.60 <= frac <= 0.80 and dt < 900.0
    _report(7, "thin-decagon fraction", ok,
            f"{thin}/{total} samples with thickness < 0.01 (fraction "
            f"{frac:.3f}, band [0.60, 0.80]), runtime={dt:.1f}s")


def test_criterion_8_invariant_suite():
    t0 = time.perf_counter()
    failures = []

    # hull oracle equivalence for n <= 12 point sets
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = rng.random((int(rng.integers(3, 13)), 2))
        hull = convex_hull_2d(pts)
        for k, p in enumerate(pts):
            on = False
            for ang in np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False):
                nrm = np.array([np.cos(ang), np.sin(ang)])
                if np.all((pts - p) @ nrm <= 1e-9):
                    on = True
                    break
            if on != bool(hull.boundary_mask[k]):
                failures.append(f"hull mask mismatch seed={seed} k={k}")

    # angle sums: closed polygons turn by at least 2 pi, planar convex exactly
    for n in (5, 9, 14):
        if not np.isclose(np.sum(turning_angles(regular_polygon(n))), 2 * np.pi,
                          atol=1e-10):
            failures.append(f"turning sum of regular {n}-gon")
    for seed in range(20):
        K = random_equilateral(8, 500 + seed)
        if np.sum(turning_angles(K)) < 2 * np.pi - 1e-9:
            failures.append(f"turning sum below 2 pi, seed={seed}")

    # doubly critical distance vs dense sampling at grid resolution 1e-3
    for seed in range(50):
        K = random_equilateral(6, 900 + seed)
        pairs = doubly_critical_pairs(K)
        rep = injectivity_radius(K)
        V, n = K.vertices, K.n
        ts = np.linspace(0.0, 1.0, 1001)
        E = np.roll(V, -1, axis=0) - V
        sep = np.inf
        for i in range(n):
            for j in range(i + 1, n):
                if (j - i) % n in (1,) or (i - j) % n == 1:
                    continue
                A = V[i][None] + ts[:, None] * E[i][None]
                B = V[j][None] + ts[:, None] * E[j][None]
                sep = min(sep, float(np.min(
                    np.linalg.norm(A[:, None] - B[None], axis=2))))
        if pairs and pairs[0].distance < sep - 1e-3:
            failures.append(f"dc pair below true separation, seed={seed}")
        if rep.dcsd is not None and rep.dcsd / 2.0 < rep.minrad - 1e-9:
            if abs(rep.dcsd - sep) > 1e-3:
                failures.append(f"distance-limited radius off oracle, seed={seed}")

    # a nontrivial reflection with a fixed point (chain aperiodicity cannot
    # be certified from the noise alone)
    s3 = np.sqrt(3.0)
    Khex = validate_polygon(np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
        [1.5, s3 / 2, 0.0], [1.0, s3, 0.0], [0.5, s3 / 2, 0.0],
    ]))
    fixed = False
    for theta in np.linspace(0.0, np.pi, 721):
        K2 = apply_reflection(Khex, ReflectionMove(0, 2, theta))
        if np.max(np.abs(K2.vertices - Khex.vertices)) < 1e-12:
            fixed = True
            break
    if not fixed:
        failures.append("no fixed-point reflection on doubled triangle")

    # Alexander determinants of the three reference knots
    for K, want in ((regular_polygon(8), 1),
                    (validate_polygon(TREFOIL_6), 3),
                    (validate_polygon(FIGURE_EIGHT_8), 5)):
        got = alexander_determinant(K)
        if got != want:
            failures.append(f"determinant {got} != {want}")

    dt = time.perf_counter() - t0
    ok = not failures and dt < 1200.0
    _report(8, "invariant suite", ok,
            f"{len(failures)} failures{': ' + '; '.join(failures[:3]) if failures else ''}, "
            f"runtime={dt:.1f}s")
