"""Command-line interface.

Subcommands, registered from one table (_COMMANDS): reduce, rootform, dist, qt,
grid, voronoi. rootform, qt and grid stream their input in one thread through
records.iter_records: each line is parsed and reduced, then formatted or
binned, before the next is read. The first bad line aborts the run, or with
--lenient is skipped with a warning, so warnings come out in line order. grid
checks its options before it reads the input. Each output, a file or stdout
(-o - or no -o for rootform and qt; grid's paths are always files), is
spooled to a temporary file (in TMPDIR) and copied out once complete, so no
command leaves a partial file when it aborts. Memory is flat in the record
count, and grid's is O(occupied pixels + one band of rows) at any --res. -o
files are UTF-8, as the input is. LATTICE_THREADS is ignored. Numbers print
with 12 significant digits. A start imports only the modules its subcommand
runs and adds only its arguments to the parser. A value flag takes the next
argument, "-x" too, unless that is one of the command's options (-h included).
The program entry, main() with no argv, calls gc.freeze() before the subcommand
so exit skips the start-up heap; an import or a call main([...]) leaves gc alone.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys

from .errors import LatticeError
from .lattice import (Basis2, Vec2, _oriented_root_products, check_basis, conorms, orient_obtuse,
                      oriented_root_form, reduce_to_obtuse, root_form_from_values,
                      superbase_from_basis)
from .records import (GridSpec, LatticeRecord, _write_grid, accumulate_grid, basis_coords,
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
    with open(args.input, "r", encoding="utf-8-sig", errors="surrogateescape", newline="\n") as fh:
        yield from iter_records(fh, _record_forms, args.lenient)


def _write_out(path: str | None, write, *args) -> int:
    """Run ``write(*args, spool)`` on a binary temporary file (in TMPDIR), then copy
    the spool to the file ``path``, or to stdout for None: memory stays flat in
    the output's size, and ``path`` is opened only once ``write`` has returned."""
    import shutil
    import tempfile

    with tempfile.TemporaryFile() as spool:
        write(*args, spool)
        spool.seek(0)
        if path is None:
            with io.TextIOWrapper(spool, "utf-8", newline="\n") as text:  # closes the spool
                shutil.copyfileobj(text, sys.stdout, 1 << 16)
        else:
            with open(path, "wb") as fh:
                shutil.copyfileobj(spool, fh, 1 << 16)
    return 0


def _write_rows(header: str, rows, out) -> None:
    """Write ``header`` and ``rows``, one UTF-8 line each, to ``out``, 1024 rows at a time."""
    from itertools import islice

    out.write(header.encode() + b"\n")
    while batch := list(islice(rows, 1024)):
        out.write(("\n".join(batch) + "\n").encode())


def _cmd_reduce(args) -> int:
    obt = reduce_to_obtuse(superbase_from_basis(_basis_from_flag(args.basis)))
    orf, sign = orient_obtuse(obt)
    print("v0x,v0y,v1x,v1y,v2x,v2y,p12,p01,p02,r12,r01,r02,sign,steps")
    cells = (*obt.v0, *obt.v1, *obt.v2, *conorms(obt), *sorted(orf))
    print(",".join([*map(fmt, cells), sign.value, str(obt.reduction_steps)]))
    return 0


def _record_forms(rec: LatticeRecord):
    """(id, oriented root products, sign) of a record, on floats throughout,
    by oriented_root_products' two steps."""
    x1, y1, x2, y2 = rec.params if rec.kind == "basis" else basis_coords(rec)
    check_basis(x1, y1, x2, y2)
    _, orf, sign, _ = _oriented_root_products(x1, y1, x2, y2)
    return rec.id, orf, sign


def _cmd_rootform(args) -> int:
    order = tuple if args.oriented else sorted
    path = None if args.output == "-" else args.output  # "-" is stdout, as is no -o
    return _write_out(path, _write_rows, "id,r12,r01,r02,sign", (
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
        root_form_from_values(*a), root_form_from_values(*b)  # checks; the metrics sort or rotate
    elif args.basis is not None:
        a = oriented_root_form(_basis_from_flag(args.basis))[0]
        b = oriented_root_form(_basis_from_flag(args.basis2))[0]
    else:
        raise LatticeError("provide --rf/--rf2 or --basis/--basis2")
    d = root_metric_oriented(a, b, q) if args.oriented else root_metric(a, b, q)
    print(fmt(d))
    return 0


def _cmd_qt(args) -> int:
    from .projection import to_quotient_triangle_oriented

    def rows():
        for rec_id, orf, sign in _process_records(args):
            x, y, signed_x = to_quotient_triangle_oriented(orf, sign)
            yield f"{rec_id},{fmt(signed_x if args.signed else x)},{fmt(y)}"

    path = None if args.output == "-" else args.output  # "-" is stdout
    return _write_out(path, _write_rows, "id,x,y", rows())


def _cmd_grid(args) -> int:
    from .projection import _QT_BOX, qt_coords

    given = (args.xmin, args.xmax, args.ymin, args.ymax)
    box = (0.0, 25.0, 0.0, 25.0) if args.mode == "rootpair" else _QT_BOX
    spec = GridSpec(*(d if v is None else v for v, d in zip(given, box)), args.res)
    rows = _process_records(args)
    if args.mode == "rootpair":
        points = (sorted(orf)[1:] for _, orf, _ in rows)
    else:
        points = (qt_coords(*sorted(orf)) for _, orf, _ in rows)
    grid = accumulate_grid(points, spec)
    for path, kind in [(args.output, "csv")] + ([(args.pgm, "pgm")] if args.pgm else []):
        _write_out(path, _write_grid, grid, kind)
    return 0


def _cmd_voronoi(args) -> int:
    from .voronoi import _domain, voronoi_vectors

    vvs = voronoi_vectors(_basis_from_flag(args.basis))
    poly = _domain(vvs)
    lines = ["c1,c2,x,y,strict"]
    for v in vvs:
        cells = [str(v.coeffs[0]), str(v.coeffs[1]), fmt(v.vector.x), fmt(v.vector.y)]
        lines.append(",".join([*cells, "true" if v.strict else "false"]))
    lines += ["", "x,y", *(f"{fmt(p.x)},{fmt(p.y)}" for p in poly.vertices)]
    print("\n".join(lines))
    return 0


# subcommand: (help, its arguments as (flags, add_argument keywords)), in usage order
_BASIS = (("--basis",), dict(required=True, metavar="X1,Y1,X2,Y2"))
_INPUT = (("-i", "--input"), dict(required=True))
_LENIENT = (("--lenient",), dict(action="store_true"))
_COMMANDS = {
    "reduce": ("obtuse superbase, conorms, root form of one basis", [_BASIS]),
    "rootform": ("root forms of a record file", [
        _INPUT, (("-o", "--output"), dict(default=None, help="output CSV (default stdout)")),
        (("--oriented",), dict(action="store_true",
                               help="emit the cyclic-canonical oriented triple")),
        _LENIENT]),
    "dist": ("root metric between two lattices", [
        (("--q",), dict(required=True, help="Minkowski order (>= 1 or 'inf')")),
        (("--rf",), dict(metavar="A12,A01,A02")), (("--rf2",), dict(metavar="B12,B01,B02")),
        (("--basis",), dict(metavar="X1,Y1,X2,Y2")), (("--basis2",), dict(metavar="X1,Y1,X2,Y2")),
        (("--oriented",), dict(action="store_true"))]),
    "qt": ("quotient-triangle coordinates of a record file", [
        _INPUT, (("-o", "--output"), dict(required=True)),
        (("--signed",), dict(action="store_true", help="negate x for negative (mirror) lattices")),
        _LENIENT]),
    "grid": ("density grid over root pairs or QT points", [
        _INPUT, (("-o", "--output"), dict(required=True, help="output CSV path")),
        (("--pgm",), dict(default=None, help="also write a binary PGM image")),
        *((("--" + b,), dict(type=float, default=None)) for b in ("xmin", "xmax", "ymin", "ymax")),
        (("--res",), dict(type=int, default=200)),
        (("--mode",), dict(choices=("rootpair", "qt"), default="rootpair")),
        _LENIENT]),
    "voronoi": ("Voronoi vectors and domain of one basis", [_BASIS]),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser. Every subcommand is registered, but when ``command``
    names one, only it gets its arguments; help, an unknown command or an
    empty argv get those of all six."""
    parser = argparse.ArgumentParser(
        prog="rootforms",
        description="Isometry invariants, metrics and density maps of 2D lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=globals()[f"_cmd_{name}"])  # at build time: tracers patch _cmd_*
        if command not in _COMMANDS or command == name:
            for flags, keywords in arguments:
                p.add_argument(*flags, **keywords)
    return parser


def main(argv=None) -> int:
    entry = argv is None  # the program's own start, not a call from a host process
    argv = sys.argv[1:] if entry else list(argv)
    command = argv[0] if argv else None
    # each option string of the command, -h/--help included: does it take a value?
    takes = {f: "action" not in kw for fs, kw in _COMMANDS.get(command, ("", ()))[1] for f in fs}
    takes.update({"-h": False, "--help": False})
    for i in range((argv + ["--"]).index("--") - 1, 1, -1):  # "--xmin -1" -> "--xmin=-1"
        flag, value = argv[i - 1], argv[i]
        if flag not in takes and flag[:2] == "--":  # as argparse abbreviates: one prefix match
            found = [f for f in takes if f.startswith(flag)]
            flag = found[0] if len(found) == 1 else None
        if takes.get(flag) and value[:1] == "-" and value.partition("=")[0] not in takes:
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={value}"]
    args = _build_parser(command).parse_args(argv)
    if entry:  # before the command opens a file, so a leaked one is still collected
        gc.freeze()
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # unreadable or unwritable files, LatticeError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # e.g. a grid whose occupied pixels do not fit
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
