"""Command-line interface.

Subcommands: reduce, rootform, dist, qt, grid, voronoi. rootform, qt and grid
stream their input in one thread through records.iter_records: each line is
parsed and reduced, then formatted or binned, before the next is read. The
first bad line aborts the run, or with --lenient is skipped with a warning,
so warnings come out in line order. rootform and qt spool their rows to a
temporary file (in TMPDIR) and copy it to -o or stdout after the last record,
so their memory is flat in the record count; grid's is O(occupied pixels), at
most O(res^2). grid checks its options before it reads the input and builds
each file's bytes before it opens that file, so no command leaves a partial
file when it aborts. -o files are UTF-8, as the input is. LATTICE_THREADS is
accepted for compatibility and ignored. Numbers print with 12 significant
digits. A start imports only the modules its subcommand runs and adds only
that subcommand's arguments to the parser.
"""

from __future__ import annotations

import argparse
import sys

from .errors import LatticeError
from .lattice import (_NEGATIVE, Basis2, Vec2, _oriented_root_products, check_basis,
                      oriented_root_form, oriented_root_products, root_form_from_values)
from .records import (GridSpec, LatticeRecord, accumulate_grid, basis_coords, emit_grid,
                      format_number as fmt, iter_records)


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise LatticeError(f"{what} needs {count} comma-separated numbers, got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise LatticeError(f"{what}: non-numeric value in {text!r}") from None


def _basis_from_flag(text: str) -> Basis2:
    x1, y1, x2, y2 = _parse_floats(text, 4, "--basis")
    return Basis2(Vec2(x1, y1), Vec2(x2, y2))


def _parse_q(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise LatticeError(f"--q must be a number >= 1 or 'inf', got {text!r}") from None


def _process_records(args):
    """Yield (id, oriented root products, sign) per record of the input file."""
    with open(args.input, "r", encoding="utf-8", newline="\n") as fh:
        yield from iter_records(fh, _record_forms, args.lenient)


def _write_rows(path: str | None, header: str, rows) -> int:
    """Write ``header`` and ``rows``, one line each, to ``path`` or stdout ("-", None).

    Rows go to a temporary file as they come, 1024 at a time, and are copied out
    after the last one: memory stays flat, and a run that aborts opens no -o."""
    import shutil
    import tempfile
    from itertools import islice

    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool:
        spool.write(header + "\n")
        while batch := list(islice(rows, 1024)):  # a write per row costs 3x as much
            spool.write("\n".join(batch) + "\n")
        spool.seek(0)
        if path is None or path == "-":
            shutil.copyfileobj(spool, sys.stdout, 1 << 16)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                shutil.copyfileobj(spool, fh, 1 << 16)
    return 0


def _cmd_reduce(args) -> int:
    v1, v2 = _basis_from_flag(args.basis)
    xy, orf, sign, steps = oriented_root_products(*v1, *v2)
    x0, y0, x1, y1, x2, y2 = xy
    p = (-(x1 * x2 + y1 * y2), -(x0 * x1 + y0 * y1), -(x0 * x2 + y0 * y2))  # p12, p01, p02
    print("v0x,v0y,v1x,v1y,v2x,v2y,p12,p01,p02,r12,r01,r02,sign,steps")
    print(",".join([*(fmt(c) for c in (*xy, *p, *sorted(orf))), sign.value, str(steps)]))
    return 0


def _record_forms(rec: LatticeRecord):
    """(id, oriented root products, sign) of a record, on floats throughout.

    oriented_root_products' two steps, called here directly: one frame fewer."""
    x1, y1, x2, y2 = rec.params if rec.kind == "basis" else basis_coords(rec)
    check_basis(x1, y1, x2, y2)
    _, orf, sign, _ = _oriented_root_products(x1, y1, x2, y2)
    return rec.id, orf, sign


def _cmd_rootform(args) -> int:
    order = tuple if args.oriented else sorted
    return _write_rows(args.output, "id,r12,r01,r02,sign", (
        ",".join([rec_id, *(fmt(v) for v in order(orf)), sign.value])
        for rec_id, orf, sign in _process_records(args)))


def _cmd_dist(args) -> int:
    from .metrics import root_metric, root_metric_oriented

    q = _parse_q(args.q)
    if (args.rf is None) != (args.rf2 is None) or (args.basis is None) != (args.basis2 is None):
        raise LatticeError("provide both --rf and --rf2, or both --basis and --basis2")
    if args.rf is not None and args.basis is not None:
        raise LatticeError("choose either root-form or basis inputs, not both")
    if args.rf is not None:
        a = _parse_floats(args.rf, 3, "--rf")
        b = _parse_floats(args.rf2, 3, "--rf2")
        # no negative entry and at most one zero; the metrics sort or rotate
        root_form_from_values(*a)
        root_form_from_values(*b)
    elif args.basis is not None:
        a = oriented_root_form(_basis_from_flag(args.basis))[0]
        b = oriented_root_form(_basis_from_flag(args.basis2))[0]
    else:
        raise LatticeError("provide --rf/--rf2 or --basis/--basis2")
    d = root_metric_oriented(a, b, q) if args.oriented else root_metric(a, b, q)
    print(fmt(d))
    return 0


def _cmd_qt(args) -> int:
    from .projection import qt_coords

    def rows():
        for rec_id, orf, sign in _process_records(args):
            x, y = qt_coords(*sorted(orf))
            x = -x if args.signed and sign is _NEGATIVE else x
            yield f"{rec_id},{fmt(x)},{fmt(y)}"

    return _write_rows(args.output, "id,x,y", rows())


_GRID_DEFAULTS = {
    "rootpair": (0.0, 25.0, 0.0, 25.0),
    "qt": (0.0, 0.5, 0.0, 1.0 / 3.0),
}


def _cmd_grid(args) -> int:
    from .projection import qt_coords

    given = (args.xmin, args.xmax, args.ymin, args.ymax)
    bounds = (d if v is None else v for v, d in zip(given, _GRID_DEFAULTS[args.mode]))
    spec = GridSpec(*bounds, args.res)
    rows = _process_records(args)
    if args.mode == "rootpair":
        points = (sorted(orf)[1:] for _, orf, _ in rows)
    else:
        points = (qt_coords(*sorted(orf)) for _, orf, _ in rows)
    grid = accumulate_grid(points, spec)
    for path, kind in [(args.output, "csv")] + ([(args.pgm, "pgm")] if args.pgm else []):
        data = emit_grid(grid, kind)  # before its file is opened: a failed emit writes nothing
        with open(path, "wb") as fh:
            fh.write(data)
        del data  # one payload alive at a time
    return 0


def _cmd_voronoi(args) -> int:
    from .voronoi import voronoi_domain, voronoi_vectors

    basis = _basis_from_flag(args.basis)
    vvs = voronoi_vectors(basis)
    poly = voronoi_domain(basis)
    lines = ["c1,c2,x,y,strict"]
    for v in vvs:
        cells = [str(v.coeffs[0]), str(v.coeffs[1]), fmt(v.vector.x), fmt(v.vector.y)]
        lines.append(",".join([*cells, "true" if v.strict else "false"]))
    lines += ["", "x,y", *(f"{fmt(p.x)},{fmt(p.y)}" for p in poly.vertices)]
    print("\n".join(lines))
    return 0


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser. Every subcommand is registered, but when ``command``
    names one, only it gets its arguments; help, an unknown command or an
    empty argv get those of all six."""
    parser = argparse.ArgumentParser(
        prog="rootforms",
        description="Isometry invariants, metrics and density maps of 2D lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in ("reduce", "rootform", "dist", "qt", "grid", "voronoi")

    p = sub.add_parser("reduce", help="obtuse superbase, conorms, root form of one basis")
    p.set_defaults(func=_cmd_reduce)
    if every or command == "reduce":
        p.add_argument("--basis", required=True, metavar="X1,Y1,X2,Y2")

    p = sub.add_parser("rootform", help="root forms of a record file")
    p.set_defaults(func=_cmd_rootform)
    if every or command == "rootform":
        p.add_argument("-i", "--input", required=True)
        p.add_argument("-o", "--output", default=None, help="output CSV (default stdout)")
        p.add_argument("--oriented", action="store_true",
                       help="emit the cyclic-canonical oriented triple")
        p.add_argument("--lenient", action="store_true")

    p = sub.add_parser("dist", help="root metric between two lattices")
    p.set_defaults(func=_cmd_dist)
    if every or command == "dist":
        p.add_argument("--q", required=True, help="Minkowski order (>= 1 or 'inf')")
        p.add_argument("--rf", metavar="A12,A01,A02")
        p.add_argument("--rf2", metavar="B12,B01,B02")
        p.add_argument("--basis", metavar="X1,Y1,X2,Y2")
        p.add_argument("--basis2", metavar="X1,Y1,X2,Y2")
        p.add_argument("--oriented", action="store_true")

    p = sub.add_parser("qt", help="quotient-triangle coordinates of a record file")
    p.set_defaults(func=_cmd_qt)
    if every or command == "qt":
        p.add_argument("-i", "--input", required=True)
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--signed", action="store_true",
                       help="negate x for negative (mirror) lattices")
        p.add_argument("--lenient", action="store_true")

    p = sub.add_parser("grid", help="density grid over root pairs or QT points")
    p.set_defaults(func=_cmd_grid)
    if every or command == "grid":
        p.add_argument("-i", "--input", required=True)
        p.add_argument("-o", "--output", required=True, help="output CSV path")
        p.add_argument("--pgm", default=None, help="also write a binary PGM image")
        p.add_argument("--xmin", type=float, default=None)
        p.add_argument("--xmax", type=float, default=None)
        p.add_argument("--ymin", type=float, default=None)
        p.add_argument("--ymax", type=float, default=None)
        p.add_argument("--res", type=int, default=200)
        p.add_argument("--mode", choices=("rootpair", "qt"), default="rootpair")
        p.add_argument("--lenient", action="store_true")

    p = sub.add_parser("voronoi", help="Voronoi vectors and domain of one basis")
    p.set_defaults(func=_cmd_voronoi)
    if every or command == "voronoi":
        p.add_argument("--basis", required=True, metavar="X1,Y1,X2,Y2")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # unreadable or unwritable files, LatticeError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # e.g. grid --res 20000: the emitted raster takes 2 * res^2 bytes
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
