"""Output checks that do not depend on a recorded copy of earlier output.

Every check returns a list of problems (empty when the output is correct).
Geometry is recomputed here with numpy; only the independent radius route
`radius_via_tc` and the closed-form thickness comparison use the package.
"""

from __future__ import annotations

import math

import numpy as np

EDGE_TOL = 1e-8
BOUND_TOL = 1e-9
PLANAR_TOL = 1e-8
RMS_TOL = 1e-6
THICKNESS_TOL = 1e-9
MONOTONE_TOL = 1e-9


def edge_problems(V, label):
    """Cyclic edges, the closing edge included, within EDGE_TOL of unit length."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != 3 or len(V) < 3 or not np.all(np.isfinite(V)):
        return [f"{label}: not a finite (n, 3) vertex array"]
    lengths = np.linalg.norm(np.roll(V, -1, axis=0) - V, axis=1)
    worst = float(np.max(np.abs(lengths - 1.0)))
    if worst > EDGE_TOL:
        return [f"{label}: edge length off unit by {worst:.3g}"]
    return []


def rg2(V):
    V = np.asarray(V, dtype=float)
    return float(np.mean(np.sum((V - V.mean(axis=0)) ** 2, axis=1)))


def rg2_max(n):
    """Rg^2 of the regular planar n-gon, the largest over closed
    equilateral n-gons."""
    return (2.0 * math.sin(math.pi / n)) ** -2


def rg2_problems(V, label):
    value, top = rg2(V), rg2_max(len(V))
    if not (0.0 < value <= top * (1.0 + 1e-12)):
        return [f"{label}: Rg^2 = {value:.17g} outside (0, {top:.17g}]"]
    return []


def expected_samples(steps, burn_in, stride):
    return len(range(burn_in, steps, stride))


def count_problems(got, steps, burn_in, stride, label):
    want = expected_samples(steps, burn_in, stride)
    if got != want:
        return [f"{label}: {got} samples, steps/burn_in/stride imply {want}"]
    return []


def polygon_problems(polygons, label):
    """Edge and Rg^2 checks over a list of vertex arrays."""
    problems = []
    for k, V in enumerate(polygons):
        problems += edge_problems(V, f"{label} sample {k}")
        if not problems:
            problems += rg2_problems(V, f"{label} sample {k}")
        if problems:
            break
    return problems


def replay_problems(first, replay, label):
    """A shorter chain with the same seed must reproduce the first samples
    bit for bit (the noise is a pure function of seed and step)."""
    if not replay or len(replay) > len(first):
        return [f"{label}: replay has {len(replay)} samples"]
    for k, (a, b) in enumerate(zip(first, replay)):
        if not np.array_equal(np.asarray(a), np.asarray(b)):
            return [f"{label}: replayed sample {k} differs"]
    return []


def bound_problems(V, t, radius_via_tc, label):
    """thickness >= t by the total-curvature route, independent of the
    doubly-critical enumeration the chain uses."""
    from_tc = radius_via_tc(V) / len(V)
    if from_tc < t - BOUND_TOL:
        return [f"{label}: thickness {from_tc:.17g} below the bound {t}"]
    return []


def parse_analyze(text):
    """`thickknots analyze` lines -> list of {field: string}."""
    rows = []
    for line in text.splitlines():
        if line.strip():
            rows.append(dict(tok.split("=", 1) for tok in line.split()))
    return rows


def analyze_problems(rows, polygons, t, label):
    """One row per record; every determinant an odd positive integer;
    every printed thickness meets the bound; Rg matches our own."""
    if len(rows) != len(polygons):
        return [f"{label}: analyze printed {len(rows)} rows for {len(polygons)} records"]
    for k, (row, V) in enumerate(zip(rows, polygons)):
        try:
            det = int(row["determinant"])
            th = float(row["thickness"])
            rg = float(row["rg"])
        except (KeyError, ValueError):
            return [f"{label}: malformed analyze row {k}: {row}"]
        if det <= 0 or det % 2 == 0:
            return [f"{label}: record {k} determinant {det} is not odd positive"]
        if th < t - BOUND_TOL:
            return [f"{label}: record {k} thickness {th:.17g} below the bound {t}"]
        if abs(rg * rg - rg2(V)) > 1e-9 * max(1.0, rg2(V)):
            return [f"{label}: record {k} rg {rg!r} disagrees with the vertices"]
    return []


def stats_problems(rows, polygons, t, label):
    if len(rows) != len(polygons):
        return [f"{label}: {len(rows)} stats rows for {len(polygons)} records"]
    for k, row in enumerate(rows):
        if float(row["thickness"]) < t - BOUND_TOL:
            return [f"{label}: stats row {k} thickness below the bound {t}"]
    return []


def aligned_rms(A, B):
    """RMS of A against B after the best rigid motion, reflections allowed
    (Kabsch on centred copies; an improper optimum is kept, since a mirror
    image of the regular polygon is the same polygon)."""
    A = np.asarray(A, dtype=float) - np.mean(A, axis=0)
    B = np.asarray(B, dtype=float) - np.mean(B, axis=0)
    U, _, Wt = np.linalg.svd(A.T @ B)
    R = U @ Wt
    return float(np.sqrt(np.mean(np.sum((A @ R - B) ** 2, axis=1))))


def regular_vertices(n):
    r = 1.0 / (2.0 * math.sin(math.pi / n))
    a = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([r * np.cos(a), r * np.sin(a), np.zeros(n)])


def regular_thickness(n):
    """Thickness of the regular n-gon, cot(pi/n) / (2n) (even n)."""
    return 1.0 / math.tan(math.pi / n) / (2.0 * n)


def canonical_problems(final, final_thickness, th_input, entries, label):
    """The reduction ends at the regular planar n-gon and never loses
    thickness.  `entries` holds (thickness_before, thickness_after)."""
    V = np.asarray(final, dtype=float)
    n = len(V)
    problems = edge_problems(V, label)
    spread = float(np.ptp(V[:, 2]))
    if spread > PLANAR_TOL:
        problems.append(f"{label}: final z-spread {spread:.3g}")
    rms = aligned_rms(V, regular_vertices(n))
    if rms > RMS_TOL:
        problems.append(f"{label}: final RMS {rms:.3g} against the regular {n}-gon")
    if abs(final_thickness - regular_thickness(n)) > THICKNESS_TOL:
        problems.append(
            f"{label}: final thickness {final_thickness:.17g}, "
            f"regular {n}-gon has {regular_thickness(n):.17g}")
    for k, (before, after) in enumerate(entries):
        if after < before - MONOTONE_TOL:
            problems.append(f"{label}: trace entry {k} drops thickness "
                            f"{before:.17g} -> {after:.17g}")
            break
    if final_thickness < th_input - MONOTONE_TOL:
        problems.append(f"{label}: thickness fell from {th_input:.17g} "
                        f"to {final_thickness:.17g}")
    return problems
