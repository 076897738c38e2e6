import io

import numpy as np
import pytest

from conftest import random_equilateral
from thickknots.canonicalize import canonicalize
from thickknots.errors import ParseError, TooFewVertices
from thickknots.knotio import (
    KnotRecord,
    read_knots,
    read_records,
    read_stats,
    write_knots,
    write_obj,
    write_stats,
    write_trace,
)
from thickknots.polygon import regular_polygon
from thickknots.thickness import thickness_value


def test_round_trip_is_bit_exact(tmp_path):
    polys = [regular_polygon(6), random_equilateral(8, 0), random_equilateral(10, 1)]
    path = tmp_path / "knots.txt"
    write_knots(str(path), polys)
    back = read_knots(str(path))
    assert len(back) == 3
    for a, b in zip(polys, back):
        assert np.array_equal(a.vertices, b.vertices)


def test_headers_round_trip(tmp_path):
    K = regular_polygon(5)
    rec = KnotRecord(K, {"n": "5", "seed": "17", "step": "420"})
    path = tmp_path / "one.txt"
    write_knots(str(path), [rec])
    (back,) = read_records(str(path))
    assert back.header == rec.header
    assert np.array_equal(back.polygon.vertices, K.vertices)


def test_read_records_leaves_embeddedness_lazy(tmp_path, monkeypatch):
    from thickknots import polygon

    path = tmp_path / "knots.txt"
    write_knots(str(path), [regular_polygon(6), random_equilateral(10, 1)])
    calls = []
    monkeypatch.setattr(polygon, "_is_embedded", lambda *a: calls.append(a) or True)
    recs = read_records(str(path))
    assert len(recs) == 2 and calls == []
    assert recs[1].polygon.embedded and len(calls) == 1


def test_mixed_polygons_and_records(tmp_path):
    path = tmp_path / "mix.txt"
    write_knots(str(path), [regular_polygon(4), KnotRecord(regular_polygon(6), {"n": "6"})])
    recs = read_records(str(path))
    assert [r.polygon.n for r in recs] == [4, 6]
    assert recs[0].header == {}


def test_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0\n1 0 0\n0.5 0.866\n")
    with pytest.raises(ParseError) as ei:
        read_records(str(path))
    assert ei.value.line == 3


def test_header_after_vertices_is_an_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0\n# n=3\n1 0 0\n")
    with pytest.raises(ParseError):
        read_records(str(path))


def test_malformed_header_is_an_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# just a comment\n0 0 0\n")
    with pytest.raises(ParseError):
        read_records(str(path))


def test_unparseable_float_is_an_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 zero\n")
    with pytest.raises(ParseError) as ei:
        read_records(str(path))
    assert ei.value.line == 1


def test_too_few_vertices_names_the_record(tmp_path):
    path = tmp_path / "bad.txt"
    write_knots(str(path), [regular_polygon(4)])
    with path.open("a") as h:
        h.write("\n0 0 0\n1 0 0\n")
    with pytest.raises(TooFewVertices) as ei:
        read_records(str(path))
    assert "record 1" in str(ei.value)


def test_header_n_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    write_knots(str(path), [KnotRecord(regular_polygon(4), {"n": "5"})])
    with pytest.raises(ParseError):
        read_records(str(path))


def test_stale_thickness_header_warns(tmp_path):
    K = regular_polygon(6)
    path = tmp_path / "stale.txt"
    write_knots(str(path), [KnotRecord(K, {"thickness": "0.25"})])
    with pytest.warns(UserWarning):
        read_records(str(path))
    # accurate header stays silent
    path2 = tmp_path / "fresh.txt"
    write_knots(str(path2), [KnotRecord(K, {"thickness": repr(thickness_value(K))})])
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")
        read_records(str(path2))


def test_stats_round_trip(tmp_path):
    rows = [{"step": 0, "thickness": 0.1}, {"step": 100, "thickness": 0.09}]
    path = tmp_path / "stats.txt"
    with path.open("w") as h:
        write_stats(h, rows)
    back = read_stats(str(path))
    assert [r["step"] for r in back] == ["0", "100"]
    assert [float(r["thickness"]) for r in back] == [0.1, 0.09]


def test_write_trace_lines():
    trace = canonicalize(random_equilateral(6, 5))
    buf = io.StringIO()
    write_trace(buf, trace)
    text = buf.getvalue()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) == len(trace.entries)
    for ln in lines:
        assert "stage=" in ln and "thickness_before=" in ln and "mu=" in ln


def test_write_obj_closed_polyline():
    K = regular_polygon(5)
    buf = io.StringIO()
    write_obj(buf, K, name="ring")
    text = buf.getvalue()
    vlines = [ln for ln in text.splitlines() if ln.startswith("v ")]
    assert len(vlines) == 5
    assert "l 1 2 3 4 5 1" in text
    assert "o ring" in text or "g ring" in text


def test_empty_file_gives_no_records(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    assert read_records(str(path)) == []
