"""Command-line interface.

Subcommands: reduce, rootform, dist, qt, grid, voronoi. rootform, qt and grid
stream their input in one thread: each line is parsed and reduced, then
formatted or binned, before the next is read, so grid's memory is O(occupied
pixels), at most O(res^2), whatever the record count. The first bad line
aborts the run, or with --lenient is skipped with a warning, so warnings come
out in line order. grid checks its options before it reads the input;
rootform and qt write their output at the end, so an aborted run leaves no
partial file. LATTICE_THREADS is accepted for compatibility and ignored.
Numbers print with 12 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import LatticeError
from .lattice import (
    Basis2,
    LatticeSign,
    Vec2,
    conorms,
    orient_obtuse,
    oriented_root_form,
    oriented_root_products,
    reduce_to_obtuse,
    root_form_from_values,
    superbase_from_basis,
)
from .metrics import root_metric, root_metric_oriented
from .projection import qt_coords
from .records import (
    GridSpec,
    LatticeRecord,
    accumulate_grid,
    basis_coords,
    emit_grid,
    format_number as fmt,
    parse_record_line,
)
from .voronoi import voronoi_domain, voronoi_vectors


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
    t = text.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(t)
    except ValueError:
        raise LatticeError(f"--q must be a number >= 1 or 'inf', got {text!r}") from None


def _process_records(args):
    """Yield (id, oriented root products, sign) per record, reading line by line.

    A bad line is skipped with a warning (lenient) or aborts the run.
    """
    with open(args.input, "r", encoding="utf-8") as fh:
        # splitting each chunk again keeps str.splitlines line numbering
        lines = (line for chunk in fh for line in chunk.splitlines())
        for i, line in enumerate(lines, start=1):
            rec = None
            try:
                rec = parse_record_line(line, i)
                if rec is None:  # blank or comment line
                    continue
                row = _record_forms(rec)
            except ValueError as exc:  # a ParseError, a LatticeError, or a conorm not obtuse
                msg = str(exc) if rec is None else f"record {rec.id!r} (line {rec.line}): {exc}"
                if not args.lenient:
                    raise LatticeError(msg) from exc
                print(f"warning: skipped {msg}", file=sys.stderr)
                continue
            yield row


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _cmd_reduce(args) -> int:
    basis = _basis_from_flag(args.basis)
    obt = reduce_to_obtuse(superbase_from_basis(basis))
    orf, sign = orient_obtuse(obt)
    p = [max(v, 0.0) for v in conorms(obt)]
    cells = [obt.v0.x, obt.v0.y, obt.v1.x, obt.v1.y, obt.v2.x, obt.v2.y, *p, *sorted(orf)]
    print("v0x,v0y,v1x,v1y,v2x,v2y,p12,p01,p02,r12,r01,r02,sign,steps")
    print(",".join([*(fmt(c) for c in cells), sign.value, str(obt.reduction_steps)]))
    return 0


def _record_forms(rec: LatticeRecord):
    """(id, oriented root products, sign) of a record, on floats throughout."""
    _, orf, sign, _ = oriented_root_products(*basis_coords(rec))
    return rec.id, orf, sign


def _cmd_rootform(args) -> int:
    lines = ["id,r12,r01,r02,sign"]
    for rec_id, orf, sign in _process_records(args):
        triple = tuple(orf) if args.oriented else tuple(sorted(orf))
        lines.append(",".join([rec_id, *(fmt(v) for v in triple), sign.value]))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_dist(args) -> int:
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
    lines = ["id,x,y"]
    for rec_id, orf, sign in _process_records(args):
        x, y = qt_coords(*sorted(orf))
        if args.signed and sign is LatticeSign.NEGATIVE:
            x = -x
        lines.append(",".join([rec_id, fmt(x), fmt(y)]))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


_GRID_DEFAULTS = {
    "rootpair": (0.0, 25.0, 0.0, 25.0),
    "qt": (0.0, 0.5, 0.0, 1.0 / 3.0),
}


def _cmd_grid(args) -> int:
    given = (args.xmin, args.xmax, args.ymin, args.ymax)
    bounds = (d if v is None else v for v, d in zip(given, _GRID_DEFAULTS[args.mode]))
    spec = GridSpec(*bounds, args.res)
    rows = _process_records(args)
    if args.mode == "rootpair":
        points = (sorted(orf)[1:] for _, orf, _ in rows)
    else:
        points = (qt_coords(*sorted(orf)) for _, orf, _ in rows)
    grid = accumulate_grid(points, spec)
    with open(args.output, "wb") as fh:
        fh.write(emit_grid(grid, "csv"))
    if args.pgm:
        with open(args.pgm, "wb") as fh:
            fh.write(emit_grid(grid, "pgm"))
    return 0


def _cmd_voronoi(args) -> int:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootforms",
        description="Isometry invariants, metrics and density maps of 2D lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="obtuse superbase, conorms, root form of one basis")
    p.add_argument("--basis", required=True, metavar="X1,Y1,X2,Y2")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("rootform", help="root forms of a record file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", default=None, help="output CSV (default stdout)")
    p.add_argument("--oriented", action="store_true",
                   help="emit the cyclic-canonical oriented triple")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_rootform)

    p = sub.add_parser("dist", help="root metric between two lattices")
    p.add_argument("--q", required=True, help="Minkowski order (>= 1 or 'inf')")
    p.add_argument("--rf", metavar="A12,A01,A02")
    p.add_argument("--rf2", metavar="B12,B01,B02")
    p.add_argument("--basis", metavar="X1,Y1,X2,Y2")
    p.add_argument("--basis2", metavar="X1,Y1,X2,Y2")
    p.add_argument("--oriented", action="store_true")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("qt", help="quotient-triangle coordinates of a record file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--signed", action="store_true",
                   help="negate x for negative (mirror) lattices")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_qt)

    p = sub.add_parser("grid", help="density grid over root pairs or QT points")
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
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("voronoi", help="Voronoi vectors and domain of one basis")
    p.add_argument("--basis", required=True, metavar="X1,Y1,X2,Y2")
    p.set_defaults(func=_cmd_voronoi)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # unreadable or unwritable files, LatticeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
