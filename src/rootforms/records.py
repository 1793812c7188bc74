"""Batch record ingestion, 3D-to-2D projections and density grids.

Record files are UTF-8 text, one record per line:

    id,kind,param1,param2,...

with ``#`` starting a comment and blank lines ignored. Kinds:

- ``basis`` (x1, y1, x2, y2): explicit 2D basis vectors.
- ``cell2`` (a, b, gamma): 2D unit cell, gamma in degrees.
- ``ortho3`` (a, b, c): orthorhombic 3D cell, projected along its longest
  side onto the remaining rectangular 2D cell (sides ascending).
- ``mono3`` (a, b, c, beta): monoclinic 3D cell, projected along the unique
  axis b, leaving the general cell (a, c, beta).

Density grids bin (x, y) points into resolution x resolution pixels with the
floor rule; points exactly on the upper bound land in the last pixel, points
outside the bounds (or NaN) only bump ``overflow_count``. A grid keeps only
its occupied pixels, by raster index ``(res - 1 - iy) * res + ix``, so
``sum(counts.values()) + overflow_count`` is the number of points ingested.
Emitting a grid costs O(occupied pixels + output bytes): the CSV body starts
as one buffer of zeros, counts below 10 are stored in place and longer ones
spliced in (0.16 ms for an empty 1000 x 1000 grid, 15 ms with 356k occupied
pixels, on a 2-CPU x86_64 host with Python 3.11).

LatticeRecord, GridSpec and DensityGrid are immutable named tuples, so they
also unpack, index and compare equal to plain tuples; GridSpec checks its
bounds and resolution when constructed, and in _make and _replace.
"""

from __future__ import annotations

import io
import math
import sys
from array import array
from typing import NamedTuple

from .errors import DegenerateBasis, InvalidGridSpec, ParseError
from .lattice import Basis2, Vec2

KINDS = {"basis": 4, "cell2": 3, "ortho3": 3, "mono3": 4}

# Angles this close to 0 or 180 degrees make the projected cell degenerate.
ANGLE_TOL_DEG = 1e-9


class LatticeRecord(NamedTuple):
    """One parsed input line; ``line`` is kept for error reporting."""

    id: str
    kind: str
    params: tuple[float, ...]
    line: int = 0


def parse_record_line(text: str, line: int) -> LatticeRecord | None:
    """Parse one line; returns None for blank/comment lines.

    Raises ParseError carrying the line number on malformed input.
    """
    body = text.partition("#")[0].strip()
    if not body:
        return None
    fields = body.split(",")
    if len(fields) < 2:
        raise ParseError(line, "expected id,kind,params...")
    rec_id, kind, raw = fields[0].strip(), fields[1].strip(), fields[2:]
    if not rec_id:
        raise ParseError(line, "empty record id")
    arity = KINDS.get(kind)
    if arity is None:
        raise ParseError(line, f"unknown kind {kind!r}")
    if len(raw) != arity:
        raise ParseError(line, f"kind {kind!r} takes {arity} parameters, got {len(raw)}")
    try:  # float skips surrounding whitespace except \x1c-\x1f, which str.strip drops
        params = tuple(map(float, raw))
    except ValueError:
        raw = [f.strip() for f in raw]
        try:
            params = tuple(map(float, raw))
        except ValueError:
            raise ParseError(line, f"non-numeric parameter in {raw}") from None
    if not all(map(math.isfinite, params)):
        raise ParseError(line, "non-finite parameter")

    if kind == "cell2":
        _check_lengths(params[:2], line)
        _check_angle(params[2], line)
    elif kind == "ortho3":
        _check_lengths(params, line)
    elif kind == "mono3":
        _check_lengths(params[:3], line)
        _check_angle(params[3], line)
    return LatticeRecord(rec_id, kind, params, line)


def _check_lengths(values, line: int) -> None:
    for v in values:
        if v <= 0.0:
            raise ParseError(line, f"nonpositive length {v:g}")


def _check_angle(angle: float, line: int) -> None:
    if not 0.0 < angle < 180.0:
        raise ParseError(line, f"angle {angle:g} outside (0, 180) degrees")


def parse_records(stream: str) -> list[LatticeRecord]:
    """Parse a whole record file; raises ParseError on the first bad line."""
    parsed = (parse_record_line(text, i) for i, text in enumerate(stream.splitlines(), start=1))
    return [rec for rec in parsed if rec is not None]


def _cos_sin_deg(angle: float) -> tuple[float, float]:
    """Cosine and sine of an angle in degrees, exact at quadrant multiples."""
    rem = math.fmod(angle, 360.0)
    if rem < 0.0:
        rem += 360.0
    exact = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0)}
    if rem in exact:
        return exact[rem]
    rad = math.radians(angle)
    return math.cos(rad), math.sin(rad)


def basis_coords(rec: LatticeRecord) -> tuple[float, float, float, float]:
    """Unchecked (x1, y1, x2, y2) of a record's 2D basis, by the kind's rule."""
    p = rec.params
    if rec.kind == "basis":
        return p
    if rec.kind == "ortho3":
        keep = sorted(p)[:2]
        return keep[0], 0.0, 0.0, keep[1]
    if rec.kind == "cell2":
        a, b, gamma = p
    else:  # mono3: drop the unique axis length, keep (a, c, beta)
        a, b, gamma = p[0], p[2], p[3]
    if min(gamma, 180.0 - gamma) < ANGLE_TOL_DEG:
        raise DegenerateBasis(f"cell angle {gamma:g} degrees is degenerate")
    cos_g, sin_g = _cos_sin_deg(gamma)
    return a, 0.0, b * cos_g, b * sin_g


def project_to_2d(rec: LatticeRecord) -> Basis2:
    """2D basis of a record, applying the kind's projection rule."""
    x1, y1, x2, y2 = basis_coords(rec)
    return Basis2(Vec2(x1, y1), Vec2(x2, y2))


class GridSpec(NamedTuple("GridSpec", [("x_min", float), ("x_max", float), ("y_min", float),
                                       ("y_max", float), ("resolution", int)])):
    """Bounds and resolution of a density grid."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, x_min: float, x_max: float, y_min: float, y_max: float, resolution: int):
        if not all(math.isfinite(v) for v in (x_min, x_max, y_min, y_max)):
            raise InvalidGridSpec("grid bounds must be finite")
        if x_max <= x_min or y_max <= y_min:
            raise InvalidGridSpec("grid bounds must satisfy max > min on both axes")
        # an integer type has __index__; a bool is not a resolution
        if isinstance(resolution, bool) or not hasattr(resolution, "__index__") or resolution < 1:
            raise InvalidGridSpec(f"resolution must be a positive integer, got {resolution}")
        # stored as int, so a numpy integer cannot wrap in fixed-width arithmetic
        return tuple.__new__(cls, (x_min, x_max, y_min, y_max, int(resolution)))


class DensityGrid(NamedTuple):
    """Pixel counts over a GridSpec, occupied pixels only.

    counts maps a pixel's index in the emitted raster, (res - 1 - iy) * res
    + ix with ix along x, to its count, so raster row 0 is the largest y bin.
    sum(counts.values()) + overflow_count equals the number of ingested points.
    """

    spec: GridSpec
    counts: dict[int, int]
    overflow_count: int


def accumulate_grid(points, spec: GridSpec) -> DensityGrid:
    """Bin (x, y) pairs into a DensityGrid with the clamped floor rule."""
    res = spec.resolution
    counts: dict[int, int] = {}
    overflow = 0
    x_span = spec.x_max - spec.x_min
    y_span = spec.y_max - spec.y_min
    for x, y in points:
        if not (spec.x_min <= x <= spec.x_max and spec.y_min <= y <= spec.y_max):
            overflow += 1
            continue
        ix = min(int(math.floor((x - spec.x_min) / x_span * res)), res - 1)
        iy = min(int(math.floor((y - spec.y_min) / y_span * res)), res - 1)
        k = (res - 1 - iy) * res + ix
        counts[k] = counts.get(k, 0) + 1
    return DensityGrid(spec, counts, overflow)


def format_number(value: float) -> str:
    """12 significant digits, '.' decimal separator, no locale dependence."""
    if value == 0.0:
        value = 0.0  # normalise -0.0
    return format(float(value), ".12g")


def emit_grid(grid: DensityGrid, fmt: str) -> bytes:
    """Serialise a grid as 'csv' or 'pgm' bytes.

    CSV: one header row with the values x_min,x_max,y_min,y_max,resolution,
    then resolution rows of resolution counts, top row = largest y bin.
    PGM: binary P5, same row order, maxval = min(65535, max count) with
    counts scaled linearly when they exceed 65535.
    """
    if fmt == "csv":
        return _emit_csv(grid)
    if fmt == "pgm":
        return _emit_pgm(grid)
    raise ValueError(f"unknown grid format {fmt!r}")


def _emit_csv(grid: DensityGrid) -> bytes:
    s = grid.spec
    res = s.resolution
    header = [format_number(v) for v in (s.x_min, s.x_max, s.y_min, s.y_max)] + [str(res)]
    # every body row starts as "0,0,...,0\n", so pixel k's digit is byte 2k
    body = bytearray(b"0," * (res - 1) + b"0\n") * res
    wide = []
    for k, c in grid.counts.items():
        if 0 <= c < 10:
            body[2 * k] = 48 + c
        else:
            wide.append(k)
    out, view, start = io.BytesIO(), memoryview(body), 0
    out.write(",".join(header).encode("ascii") + b"\n")
    for k in sorted(wide):  # splice in the longer counts; no slice of the body is kept
        out.write(view[start:2 * k])
        out.write(str(grid.counts[k]).encode("ascii"))
        start = 2 * k + 1
    out.write(view[start:])
    return out.getvalue()  # hands over the buffer the body was copied into, uncopied


def _emit_pgm(grid: DensityGrid) -> bytes:
    res = grid.spec.resolution
    max_count = max(grid.counts.values(), default=0)
    maxval = min(65535, max(max_count, 1))
    scale = maxval / max_count if max_count > maxval else 1  # round() takes ties to even
    image = bytearray(res * res) if maxval <= 255 else array("H", bytes(2 * res * res))
    for k, c in grid.counts.items():
        image[k] = round(c * scale)
    if maxval > 255 and sys.byteorder == "little":
        image.byteswap()  # PGM stores 16-bit samples big-endian
    return f"P5\n{res} {res}\n{maxval}\n".encode("ascii") + bytes(image)
