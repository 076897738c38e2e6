"""The tracer times entry points, restores them, and reports a removed
entry point as missing rather than as zero."""

import importlib
import sys

import pytest

import thickknots
import thickknots.cli  # noqa: F401  (loads every module the tracer patches)
from tracer import Tracer, entry_names


def test_package_name_shadows_the_canonicalize_module():
    # the package re-exports the function under the module's name
    assert callable(thickknots.canonicalize)
    module = importlib.import_module("thickknots.canonicalize")
    assert module is sys.modules["thickknots.canonicalize"]
    assert module is not thickknots.canonicalize


def test_wrappers_count_and_time_and_are_removed():
    thickness = importlib.import_module("thickknots.thickness")
    mcmc = importlib.import_module("thickknots.mcmc")
    original = thickness.thickness_value
    tracer = Tracer().install()
    try:
        assert mcmc.thickness_value is not original
        assert thickknots.thickness_value is mcmc.thickness_value
        thickknots.thickness_value(thickknots.regular_polygon(10))
    finally:
        tracer.uninstall()
    assert thickness.thickness_value is original
    assert mcmc.thickness_value is original
    assert thickknots.thickness_value is original
    assert tracer.calls_of("thickness.thickness_value") == 1
    assert tracer.calls_of("polygon.interior_angles") >= 1
    # self times partition the outer span: nested time is not counted twice
    outer = tracer.span_end[0] - tracer.span_start[0]
    assert tracer.span_parent[0] == -1 and tracer.span_parent[1] == 0
    assert tracer.covered_s() == pytest.approx(outer, rel=1e-9, abs=1e-12)


def test_removed_entry_point_is_reported_missing(monkeypatch):
    moves = importlib.import_module("thickknots.moves")
    monkeypatch.delattr(moves, "apply_hextuple")
    tracer = Tracer().install()
    tracer.uninstall()
    assert tracer.missing == ["moves.apply_hextuple"]
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["moves.apply_hextuple.calls"][0] is None
    assert metrics["moves.apply_hextuple.self_s"][0] is None
    assert metrics["moves.apply_reflection.calls"][0] == 0
    assert set(entry_names()) - set(tracer.missing) == {
        n for n in entry_names() if n != "moves.apply_hextuple"}
