"""Knot record files, stats streams, trace export, and OBJ conversion.

A knot file holds records separated by a single blank line.  Each record is
optional '#'-prefixed header lines (key=value; known keys: n, thickness,
seed, step) followed by n vertex lines of three decimal floats printed with
17 significant digits, so coordinates round-trip bit-exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ThickKnotsError, TooFewVertices
from .polygon import KnotPolygon, validate_polygon
from .thickness import thickness_value

THICKNESS_WARN = 1e-6
_FMT = "%.17g"
_HEADER_TYPES = {"n": int, "thickness": float}  # headers read_records parses


@dataclass
class KnotRecord:
    polygon: KnotPolygon
    header: dict = field(default_factory=dict)


def _open(path, mode):
    if path == "-":
        import sys
        stream = sys.stdin if "r" in mode else sys.stdout
        return stream, False
    return open(path, mode), True


def write_knots(path, polygons, headers=None):
    """Write polygons (KnotPolygon or KnotRecord) to `path` ('-' = stdout).

    `headers` optionally supplies one dict per plain polygon; records carry
    their own."""
    handle, owned = _open(path, "w")
    try:
        first = True
        for k, item in enumerate(polygons):
            if not first:
                handle.write("\n")
            first = False
            if isinstance(item, KnotRecord):
                poly, head = item.polygon, item.header
            else:
                poly = item
                head = headers[k] if headers is not None else {}
            for key, value in head.items():
                handle.write(f"# {key}={value}\n")
            for x, y, z in poly.vertices:
                handle.write(f"{_FMT % x} {_FMT % y} {_FMT % z}\n")
    finally:
        if owned:
            handle.close()


def read_records(path):
    """Parse a knot file into KnotRecord objects, validating each polygon."""
    handle, owned = _open(path, "r")
    try:
        lines = handle.read().splitlines()
    finally:
        if owned:
            handle.close()

    records = []
    header, coords, start_line = {}, [], None
    blocks = []  # (header, coords, first_line)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            if header or coords:
                blocks.append((header, coords, start_line))
                header, coords, start_line = {}, [], None
            continue
        if start_line is None:
            start_line = lineno
        if line.startswith("#"):
            if coords:
                raise ParseError(lineno, "header line after vertex data")
            body = line[1:].strip()
            if "=" not in body:
                raise ParseError(lineno, f"malformed header {body!r}")
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            try:
                _HEADER_TYPES.get(key, str)(value)
            except ValueError:
                raise ParseError(lineno, f"bad {key} header {value!r}") from None
            header[key] = value
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 3 coordinates, got {len(parts)}")
        try:
            coords.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if header or coords:
        blocks.append((header, coords, start_line))

    for index, (header, coords, first_line) in enumerate(blocks):
        try:
            poly = validate_polygon(np.array(coords, dtype=float))
        except TooFewVertices as exc:
            raise TooFewVertices(f"record {index}: {exc}") from None
        except ThickKnotsError as exc:
            exc.args = (f"record {index}: {exc}",)
            raise
        if "n" in header and int(header["n"]) != poly.n:
            raise ParseError(first_line, f"header n={header['n']} but {poly.n} vertices")
        if "thickness" in header:
            stated = float(header["thickness"])
            if abs(stated - thickness_value(poly)) > THICKNESS_WARN:
                warnings.warn(
                    f"record {index}: header thickness {stated:g} differs from "
                    f"recomputed value by more than {THICKNESS_WARN:g}",
                    stacklevel=2,
                )
        records.append(KnotRecord(poly, header))
    return records


def read_knots(path):
    """Polygons only; see read_records for headers."""
    return [r.polygon for r in read_records(path)]


def write_stats(handle, records):
    """Append stats records (dicts) as one 'key=value ...' line each."""
    for rec in records:
        handle.write(" ".join(f"{k}={_fmt_value(v)}" for k, v in rec.items()) + "\n")


def _fmt_value(v):
    if isinstance(v, float):
        return _FMT % v
    return str(v)


def read_stats(path):
    handle, owned = _open(path, "r")
    try:
        out = []
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            rec = {}
            for tok in line.split():
                if "=" not in tok:
                    raise ParseError(lineno, f"malformed field {tok!r}")
                k, _, v = tok.partition("=")
                rec[k] = v
            out.append(rec)
        return out
    finally:
        if owned:
            handle.close()


def write_trace(handle, trace):
    """Line-delimited canonicalization trace (one stage entry per line)."""
    for e in trace.entries:
        handle.write(
            f"stage={e.stage.name} thickness_before={_FMT % e.thickness_before} "
            f"thickness_after={_FMT % e.thickness_after} mu={_FMT % e.mu} "
            f"incidence={e.incidence} min_height_count={e.min_height_count} "
            f"description={e.description!r}\n"
        )


def write_obj(handle, K: KnotPolygon, name="knot"):
    """Closed polyline OBJ; viewers add tubes themselves."""
    handle.write(f"o {name}\n")
    for x, y, z in K.vertices:
        handle.write(f"v {_FMT % x} {_FMT % y} {_FMT % z}\n")
    cycle = " ".join(str(i + 1) for i in range(K.n))
    handle.write(f"l {cycle} 1\n")
