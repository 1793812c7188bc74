"""Batch record ingestion, 3D-to-2D projections and density grids.

Record files are UTF-8 text, one record per line. The CLI skips a leading
byte-order mark, and a byte that is not UTF-8 fails its line (skipped under
--lenient) unless it is in a comment. Only LF ends a line: a CR before it is
whitespace, and a lone CR, FF or U+2028 stays in its line:

    id,kind,param1,param2,...

with ``#`` starting a comment and blank lines ignored; iter_records, the one
reader of these lines, owns the skip-or-abort rule for bad ones. Kinds:

- ``basis`` (x1, y1, x2, y2): explicit 2D basis vectors.
- ``cell2`` (a, b, gamma): 2D unit cell, gamma in degrees.
- ``ortho3`` (a, b, c): orthorhombic 3D cell, projected along its longest
  side onto the remaining rectangular 2D cell (sides ascending).
- ``mono3`` (a, b, c, beta): monoclinic 3D cell, projected along the unique
  axis b, leaving the general cell (a, c, beta).

Lengths must be positive and angles in (0, 180) degrees; lattice.check_basis
alone decides whether a record's 2D basis is degenerate.

Density grids bin (x, y) points into resolution x resolution pixels with the
floor rule; points exactly on the upper bound land in the last pixel, points
outside the bounds (or NaN) only bump ``overflow_count``. A grid keeps only
its occupied pixels, by raster index ``(res - 1 - iy) * res + ix``, so
``sum(counts.values()) + overflow_count`` is the number of points ingested.
A grid file is written in bands of rows of at most 64 KiB, so the emit takes
O(occupied pixels + one band) of memory whatever the resolution.

LatticeRecord, GridSpec and DensityGrid are immutable named tuples, so they
also unpack, index and compare equal to plain tuples; GridSpec checks its
bounds and resolution when constructed, and in _make and _replace.
"""

import io
import math
import sys
from typing import NamedTuple

from .errors import InvalidGridSpec, LatticeError, ParseError
from .lattice import Basis2, Vec2

KINDS = {"basis": 4, "cell2": 3, "ortho3": 3, "mono3": 4}


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
    if not rec_id.isascii():  # an undecodable byte, read as a lone surrogate, does not encode
        try:
            rec_id.encode()
        except UnicodeEncodeError:
            raise ParseError(line, "record id is not valid UTF-8") from None
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
    if kind != "basis":  # the lengths lead; cell2 and mono3 end with an angle
        n = 2 if kind == "cell2" else 3
        for v in params[:n]:
            if v <= 0.0:
                raise ParseError(line, f"nonpositive length {v:g}")
        if n < arity and not 0.0 < params[n] < 180.0:
            raise ParseError(line, f"angle {params[n]:g} outside (0, 180) degrees")
    return tuple.__new__(LatticeRecord, (rec_id, kind, params, line))


def iter_records(lines, compute=None, lenient=False):
    """Yield compute(rec), or rec, per record of the lines, numbered from 1.

    A ValueError from compute becomes LatticeError("record 'id' (line n): ...").
    With lenient, it or a ParseError is warned about on stderr and skipped.
    """
    for n, text in enumerate(lines, start=1):
        try:
            rec = parse_record_line(text, n)
            if rec is None:
                continue
            try:
                item = rec if compute is None else compute(rec)
            except ValueError as exc:  # a LatticeError, or a library compute's own
                raise LatticeError(f"record {rec.id!r} (line {n}): {exc}") from exc
        except ValueError as exc:
            if not lenient:
                raise
            print(f"warning: skipped {exc}", file=sys.stderr)
            continue
        yield item


def parse_records(stream: str) -> list[LatticeRecord]:
    """Parse a whole record file (lines end at LF); raises ParseError on the first bad line."""
    return list(iter_records(stream.split("\n")))


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
    if gamma == 90.0:  # exactly rectangular: cos(radians(90)) is 6e-17, not 0
        return a, 0.0, 0.0, b
    rad = math.radians(gamma)
    return a, 0.0, b * math.cos(rad), b * math.sin(rad)


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
        if not (math.isfinite(x_max - x_min) and math.isfinite(y_max - y_min)):
            raise InvalidGridSpec("grid spans x_max - x_min and y_max - y_min must be finite")
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
    x_min, x_max, y_min, y_max, res = spec
    counts: dict[int, int] = {}
    overflow = 0
    x_span = x_max - x_min
    y_span = y_max - y_min
    last, floor, get = res - 1, math.floor, counts.get
    for x, y in points:
        if not (x_min <= x <= x_max and y_min <= y <= y_max):
            overflow += 1
            continue
        ix = floor((x - x_min) / x_span * res)  # an int already
        if ix > last:
            ix = last
        iy = floor((y - y_min) / y_span * res)
        if iy > last:
            iy = last
        k = (last - iy) * res + ix
        counts[k] = get(k, 0) + 1
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
    counts scaled linearly when they exceed 65535. Keys must be ints in
    [0, resolution^2) and counts ints >= 0, else ValueError names the key.
    """
    out = io.BytesIO()
    _write_grid(grid, fmt, out)
    return out.getvalue()


def _write_grid(grid: DensityGrid, fmt: str, out) -> None:
    """Write emit_grid's bytes to the binary file ``out``, one band of rows at a time.

    The keys and counts are checked before the first write. A band starts as
    zero rows, takes each count below 10 (or PGM sample) in place and a b"w"
    mark for a wider count, and is written with its marks' digits spliced in.
    """
    if fmt not in ("csv", "pgm"):
        raise ValueError(f"unknown grid format {fmt!r}")
    s, counts, res = grid.spec, grid.counts, grid.spec.resolution
    n = res * res
    for k, c in counts.items():
        if not (isinstance(k, int) and 0 <= k < n and isinstance(c, int) and c >= 0):
            raise ValueError(f"grid key {k!r} with count {c!r}: want an int key in [0, {n}) "
                             "and an int count >= 0")
    if fmt == "csv":
        head = ",".join([*(format_number(v) for v in s[:4]), str(res)]).encode("ascii") + b"\n"
        row = b"0," * (res - 1) + b"0\n"  # pixel k's digit is byte 2k of the body
    else:
        max_count = max(counts.values(), default=0)
        maxval = min(65535, max(max_count, 1))
        scale = maxval / max_count if max_count > maxval else None  # round() takes ties to even
        head = f"P5\n{res} {res}\n{maxval}\n".encode("ascii")
        row = bytes(res if maxval <= 255 else 2 * res)  # 16-bit samples are big-endian
    # A band is whole rows, at most 64 KiB (or a row) and 1/32 of the raster.
    # One pass over counts groups the keys by band when their lists (9 bytes a
    # key) fit in 1/16 of the body; a denser grid's bands look their pixels up.
    rows = max(1, min(65536 // len(row), res // 32))
    span = rows * res
    firsts = range(0, n, span)  # each band's first pixel
    if len(counts) <= len(row) * res // 144:
        groups = [[] for _ in firsts]
        for k in counts:
            groups[k // span].append(k)
    else:
        groups = (filter(counts.__contains__, range(k0, k0 + span)) for k0 in firsts)
    zero, band = row * rows, bytearray()
    out.write(head)
    for keys, k0 in zip(groups, firsts):
        band[:] = zero if k0 + span <= n else zero[:len(row) * (n - k0) // res]
        with memoryview(band) as view:
            at = 0
            if fmt == "csv":
                for k in keys:
                    c = counts[k]
                    band[2 * (k - k0)] = 48 + c if c < 10 else 119  # b"w"
                while (i := band.find(119, at)) >= 0:  # the marks, first to last
                    out.write(view[at:i])
                    out.write(str(counts[k0 + i // 2]).encode("ascii"))
                    at = i + 1
            elif maxval <= 255:
                for k in keys:
                    band[k - k0] = counts[k]
            else:
                for k in keys:
                    c = counts[k]
                    v = c if scale is None else round(c * scale)
                    band[2 * (k - k0)] = v >> 8
                    band[2 * (k - k0) + 1] = v & 255
            out.write(view[at:])
