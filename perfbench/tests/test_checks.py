"""Each output check accepts a correct output and rejects a broken one."""

import numpy as np
import pytest

import checks
import thickknots as tk
from workloads import random_equilateral


@pytest.fixture
def regular6():
    return np.array(tk.regular_polygon(6).vertices)


def test_random_equilateral_is_closed_and_equilateral():
    for n, seed in [(6, 0), (6, 1), (20, 0)]:
        V = random_equilateral(n, seed)
        assert checks.edge_problems(V, "input") == []
        assert checks.rg2_problems(V, "input") == []


def test_stretched_edge_is_rejected(regular6):
    assert checks.polygon_problems([regular6], "ok") == []
    stretched = regular6.copy()
    stretched[2] *= 1.0 + 1e-6
    assert checks.polygon_problems([stretched], "bad")


def test_rg2_outside_the_regular_bound_is_rejected(regular6):
    assert checks.rg2_problems(regular6, "regular") == []
    assert checks.rg2_problems(np.zeros((6, 3)), "point")
    assert checks.rg2_problems(regular6 * 1.01, "inflated")


def test_sample_count_must_match_the_schedule():
    assert checks.count_problems(100, 3000, 500, 25, "ok") == []
    assert checks.count_problems(99, 3000, 500, 25, "short")


def test_replay_must_be_bit_identical(regular6):
    first = [regular6, regular6 + 1.0]
    assert checks.replay_problems(first, first[:1], "ok") == []
    nudged = regular6.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 2.0)
    assert checks.replay_problems(first, [nudged], "bad")


def test_sample_below_the_bound_is_rejected():
    def radius(V):
        return tk.radius_via_tc(tk.KnotPolygon(V))

    V = np.array(tk.regular_polygon(6).vertices)
    assert checks.bound_problems(V, 0.1, radius, "regular") == []
    K = random_equilateral(6, 0)
    th = tk.thickness_value(tk.KnotPolygon(K))
    assert checks.bound_problems(K, th + 1e-3, radius, "below")


def test_even_determinant_is_rejected(regular6):
    good = checks.parse_analyze(
        f"record=0 rg={float(np.sqrt(checks.rg2(regular6)))!r} thickness=0.1 "
        "determinant=3 maybe_unknot=0")
    assert checks.analyze_problems(good, [regular6], 0.05, "ok") == []
    for det in ("2", "0", "-1"):
        row = dict(good[0], determinant=det)
        assert checks.analyze_problems([row], [regular6], 0.05, "bad")
    assert checks.analyze_problems(good + good, [regular6], 0.05, "extra row")


def test_non_regular_final_polygon_is_rejected(regular6):
    def verdict(V, entries=()):
        th = tk.thickness_value(tk.KnotPolygon(V))
        return checks.canonical_problems(V, th, 0.0, list(entries), "final")

    assert verdict(regular6) == []
    # flat, convex and equilateral, but not regular
    flat = np.array(tk.apply_hextuple(tk.regular_polygon(6), (0, 1, 3, 4), 0.3).vertices)
    assert checks.edge_problems(flat, "flat") == []
    assert verdict(flat)
    assert verdict(random_equilateral(6, 0))
    # a trace entry that loses thickness
    assert verdict(regular6, [(0.1, 0.1 - 1e-6)])
