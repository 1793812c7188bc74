"""Command-line interface, exercised through main() and real files."""

import ast
import errno
import importlib.util
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from helpers import LINE_SEPARATORS, make_rng, random_basis, reference_emit_grid
from rootforms import (
    Basis2,
    GridSpec,
    LatticeError,
    Vec2,
    accumulate_grid,
    oriented_root_form,
    parse_records,
    project_to_2d,
    to_quotient_triangle_oriented,
)
from rootforms import cli
from rootforms.cli import main
from rootforms.records import _write_grid as records_write_grid, emit_grid, format_number

SQ6, SQ7 = math.sqrt(6), math.sqrt(7)

RECORDS = """\
# mixed record file
sq,cell2,1,1,90
hexa,cell2,1,1,120
rect,ortho3,5,7,12
skew,basis,3,0,-1,3
mirror,basis,3,0,-2,3
mono,mono3,6,9,8,105
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestReduce:
    def test_skew_example(self, capsys):
        code, out, _ = run(capsys, "reduce", "--basis", "3,0,-1,3")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("v0x,v0y")
        cells = row.split(",")
        assert cells[:6] == ["-2", "-3", "3", "0", "-1", "3"]
        assert cells[6:9] == ["3", "6", "7"]
        assert cells[12] == "positive"
        assert cells[13] == "0"

    @pytest.mark.parametrize("coords, row", [
        ("3,0,-1,3", "-2,-3,3,0,-1,3,3,6,7,1.73205080757,2.44948974278,2.64575131106,positive,0"),
        # a thin rectangle: one conorm is 0 and the other two are not
        ("1e-5,0,0,1", "-1e-05,-1,1e-05,0,0,1,0,1e-10,1,0,1e-05,1,neutral,0"),
    ])
    def test_full_row(self, capsys, coords, row):
        code, out, _ = run(capsys, "reduce", "--basis", coords)
        assert (code, out.splitlines()[1]) == (0, row)

    @pytest.mark.parametrize("coords, message", [
        ("1,nan,0,1", "non-finite vector (1.0, nan)"),
        ("1,0,inf,1", "non-finite vector (inf, 1.0)"),
        ("1,0,2,0", "basis determinant 0 below tolerance for scale 2"),
        ("1,2,3", "--basis needs 4 comma-separated numbers, got 3"),
        ("1,0,x,1", "--basis: non-numeric value in '1,0,x,1'"),
    ])
    def test_flag_errors(self, capsys, coords, message):
        assert run(capsys, "reduce", "--basis", coords) == (1, "", f"error: {message}\n")

    def test_reduction_step_count(self, capsys):
        code, out, _ = run(capsys, "reduce", "--basis", "1,0,1,1")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[13] == "1"

    def test_degenerate_basis_fails_cleanly(self, capsys):
        code, _, err = run(capsys, "reduce", "--basis", "1,0,2,0")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("coords", ["1e200,1e200,1e200,2e200", "1e200,3e199,-2e199,1.1e200"])
    def test_overflowing_coordinates_fail_cleanly(self, capsys, coords):
        code, out, err = run(capsys, "reduce", "--basis", coords)
        assert (code, out) == (1, "")
        assert err.startswith("error: coordinates overflow")

    def test_shear_past_former_step_cap(self, capsys):
        code, out, _ = run(capsys, "reduce", "--basis", "1,0,2500.3,1")
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert cells[12] == "negative"
        assert int(cells[13]) <= 2

    def test_max_iter_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["reduce", "--basis", "1,0,1,1", "--max-iter", "5"])
        assert info.value.code == 2


class TestRootform:
    def test_unsigned_output(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        code, out, _ = run(capsys, "rootform", "-i", str(src))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,r12,r01,r02,sign"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert rows["sq"][1:] == ["0", "1", "1", "neutral"]
        assert rows["rect"][1:] == ["0", "5", "7", "neutral"]
        assert float(rows["skew"][1]) == pytest.approx(math.sqrt(3), rel=1e-11)
        assert rows["skew"][4] == "positive"
        assert rows["mirror"][4] == "negative"
        assert rows["skew"][1:4] == rows["mirror"][1:4]

    def test_oriented_output(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        code, out, _ = run(capsys, "rootform", "-i", str(src), "--oriented")
        rows = {ln.split(",")[0]: ln.split(",") for ln in out.strip().splitlines()[1:]}
        assert float(rows["mirror"][2]) == pytest.approx(SQ7, rel=1e-11)
        assert float(rows["mirror"][3]) == pytest.approx(SQ6, rel=1e-11)

    def test_output_file(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("a,cell2,2,2,90\n")
        dst = tmp_path / "out.csv"
        code, out, _ = run(capsys, "rootform", "-i", str(src), "-o", str(dst))
        assert code == 0 and out == ""
        assert dst.read_text().splitlines()[1] == "a,0,2,2,neutral"

    def test_strict_mode_aborts(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("ok,cell2,1,1,90\nbad,cell2,1,1,999\n")
        code, _, err = run(capsys, "rootform", "-i", str(src))
        assert code == 1
        assert "line 2" in err

    def test_lenient_mode_skips(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("ok,cell2,1,1,90\nbad,cell2,1,1,999\ncollinear,basis,1,0,2,0\n")
        code, out, err = run(capsys, "rootform", "-i", str(src), "--lenient")
        assert code == 0
        assert "line 2" in err and "collinear" in err
        assert len(out.strip().splitlines()) == 2  # header + ok

    def test_non_finite_intermediate_vector_is_a_record_error(self, tmp_path, capsys):
        # the basis is finite, but v0 = -(v1 + v2) overflows to inf
        src = tmp_path / "in.csv"
        src.write_text("ok,cell2,1,1,90\nbig,basis,1e308,1e200,1e308,2e200\nok2,cell2,2,2,90\n")
        code, out, err = run(capsys, "rootform", "-i", str(src), "--lenient")
        assert code == 0, err
        assert "skipped record 'big' (line 2)" in err
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["ok", "ok2"]
        code, _, err = run(capsys, "rootform", "-i", str(src))
        assert code == 1
        assert "record 'big' (line 2)" in err


    def test_overflowing_coordinates_are_skipped(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(
            "ok,cell2,1,1,90\n"
            "nan_det,basis,1e200,1e200,1e200,2e200\n"
            "inf_det,basis,1e200,3e199,-2e199,1.1e200\n"
        )
        code, out, err = run(capsys, "rootform", "-i", str(src), "--lenient")
        assert code == 0
        assert err.splitlines() == [
            f"warning: skipped record '{rid}' (line {n}): coordinates overflow: "
            "the determinant or a squared length is not finite"
            for rid, n in (("nan_det", 2), ("inf_det", 3))
        ]
        assert out.splitlines()[1:] == ["ok,0,1,1,neutral"]

    def test_thin_basis_gets_its_root_form(self, tmp_path, capsys):
        # entry accepts it, and no second tolerance calls two conorms vanishing
        src = tmp_path / "in.csv"
        src.write_text("thin,basis,1e-5,0,0,1\n")
        code, out, err = run(capsys, "rootform", "-i", str(src))
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["thin,0,1e-05,1,neutral"]

    def test_basis_past_the_former_second_degeneracy_scale(self, tmp_path, capsys):
        # the square lattice (det -1, kappa about 8e11); entry accepted it, and
        # a second degeneracy test scaled by |v1 + v2| then rejected it
        src = tmp_path / "in.csv"
        src.write_text("sq,basis,848285,418337,49753,24536\n")
        code, out, err = run(capsys, "rootform", "-i", str(src), "--lenient")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["sq,0,1,1,neutral"]


# whitespace of every kind around ids, kinds and numbers, with every way a line
# can be skipped; \x1f is dropped by str.strip but refused by float
MIXED_WHITESPACE = (
    "# header comment\n"
    " sq , cell2 ,\t1\t, 1 , 90 \n"
    "\u00a0hexa\u00a0,\u00a0cell2\u00a0,\u00a01\u00a0,\u00a01\u00a0,\u00a0120\u00a0\n"
    "\n"
    "   \t  \n"
    "\u2003rect\u2003,\u2003ortho3\u2003,\u20035\u2003,\u20037\u2003,\u200312\u2003  # note\n"
    "# only a comment\n"
    " , \n"
    "bad,ortho3, a ,2,3\n"
    "short,basis,1,0,0\n"
    "odd, wedge ,1,2,3\n"
    "\t,basis,1,0,0,1\n"
    "loner\n"
    "sep,basis,\x1f3\x1f,0,-1,3\n"
    "mirror\t,\tbasis\t,\t3\t,\t0\t,\t-2\t,\t3\t\n"
    "mono , mono3 , 6 , 9 , 8 , 105\n"
)


class TestLenientWhitespace:
    """rootform bytes on a file of mixed whitespace and bad lines, pinned from
    the parser that stripped every field before converting it."""

    WARNINGS = (
        "warning: skipped line 8: empty record id\n"
        "warning: skipped line 9: non-numeric parameter in ['a', '2', '3']\n"
        "warning: skipped line 10: kind 'basis' takes 4 parameters, got 3\n"
        "warning: skipped line 11: unknown kind 'wedge'\n"
        "warning: skipped line 12: empty record id\n"
        "warning: skipped line 13: expected id,kind,params...\n"
    )

    @pytest.mark.parametrize("oriented, mirror", [
        (False, "mirror,1.73205080757,2.44948974278,2.64575131106,negative\n"),
        (True, "mirror,1.73205080757,2.64575131106,2.44948974278,negative\n"),
    ])
    def test_output_bytes(self, tmp_path, capsys, oriented, mirror):
        src = tmp_path / "in.csv"
        src.write_text(MIXED_WHITESPACE, encoding="utf-8")
        flags = ["--oriented"] if oriented else []
        code, out, err = run(capsys, "rootform", "-i", str(src), "--lenient", *flags)
        assert code == 0
        assert err == self.WARNINGS
        assert out == (
            "id,r12,r01,r02,sign\n"
            "sq,0,1,1,neutral\n"
            "hexa,0.707106781187,0.707106781187,0.707106781187,neutral\n"
            "rect,0,5,7,neutral\n"
            "sep,1.73205080757,2.44948974278,2.64575131106,positive\n"
            + mirror +
            "mono,3.52467220673,4.85558295523,7.18169101501,positive\n"
        )

    def test_strict_mode_stops_at_the_first_bad_line(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(MIXED_WHITESPACE, encoding="utf-8")
        code, out, err = run(capsys, "rootform", "-i", str(src))
        assert (code, out, err) == (1, "", "error: line 8: empty record id\n")


class TestDist:
    def test_rootform_inputs(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--q", "2",
            "--rf", "0,0.5,0.5", "--rf2", "0.16666666666666666,0.16666666666666666,0.6666666666666666",
        )
        expected = math.sqrt(2 * (1 / 6) ** 2 + (1 / 3) ** 2)
        assert code == 0
        assert float(out) == pytest.approx(expected, rel=1e-11)

    def test_oriented_maxnorm(self, capsys):
        a = f"{math.sqrt(3)},{SQ6},{SQ7}"
        b = f"{math.sqrt(3)},{SQ7},{SQ6}"
        code, out, _ = run(capsys, "dist", "--q", "inf", "--rf", a, "--rf2", b, "--oriented")
        assert float(out) == pytest.approx(SQ7 - SQ6, rel=1e-11)

    def test_basis_inputs_mirror_pair_unsigned_zero(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--q", "1", "--basis", "3,0,-1,3", "--basis2", "3,0,-2,3"
        )
        assert code == 0
        assert float(out) == 0.0

    def test_basis_inputs_oriented_mirror_gap(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--q", "inf",
            "--basis", "3,0,-1,3", "--basis2", "3,0,-2,3", "--oriented",
        )
        assert code == 0
        assert float(out) == pytest.approx(SQ7 - SQ6, rel=1e-11)

    def test_mixed_inputs_rejected(self, capsys):
        code, _, err = run(
            capsys, "dist", "--q", "2", "--rf", "0,1,1", "--rf2", "0,1,2",
            "--basis", "1,0,0,1", "--basis2", "0,1,1,0",
        )
        assert code == 1 and "either" in err

    def test_missing_partner_rejected(self, capsys):
        code, _, err = run(capsys, "dist", "--q", "2", "--rf", "0,1,1")
        assert code == 1 and "both" in err

    def test_bad_q(self, capsys):
        code, _, err = run(capsys, "dist", "--q", "0.3", "--rf", "0,1,1", "--rf2", "0,1,2")
        assert code == 1

    @pytest.mark.parametrize("q", ["inf", "+inf", "INF", " Infinity ", "+infinity"])
    def test_q_spellings_of_infinity(self, capsys, q):
        code, out, _ = run(capsys, "dist", f"--q={q}", "--rf", "0,1,1", "--rf2", "0,1,3")
        assert (code, out) == (0, "2\n")

    def test_huge_triples_at_q_3(self, capsys):
        code, out, err = run(capsys, "dist", "--q", "3", "--rf", "0,1e200,1e200", "--rf2", "0,1,1")
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(2 ** (1 / 3) * 1e200, rel=1e-11)

    @pytest.mark.parametrize("rf, rf2, message", [
        ("-1,2,3", "0,0,5", "negative root product"),
        ("1,2,3", "0,0,5", "two root products vanish"),
        ("1,2,3", "2,-0.5,1", "negative root product"),
        ("0,1,0", "1,2,3", "two root products vanish"),
        ("nan,1,2", "1,2,3", "non-finite root product"),
        ("1,2,3", "1,2,inf", "non-finite root product"),
        ("1,2,3", "-inf,1,2", "non-finite root product"),
    ])
    def test_invalid_triples_rejected_with_and_without_orientation(
        self, capsys, rf, rf2, message
    ):
        for flags in ((), ("--oriented",)):
            code, out, err = run(capsys, "dist", "--q", "2", f"--rf={rf}", f"--rf2={rf2}", *flags)
            assert (code, out) == (1, ""), flags
            assert message in err

    def test_oriented_triples_keep_their_cyclic_order(self, capsys):
        # validation must not sort: (1, 3, 2) and (1, 2, 3) are mirror images,
        # sqrt(2) apart in RM_2+ and 0 apart in RM_2
        argv = ("dist", "--q", "2", "--rf", "1,3,2", "--rf2", "1,2,3")
        code, out, _ = run(capsys, *argv, "--oriented")
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(2), rel=1e-11)
        assert run(capsys, *argv)[1] == "0\n"


class TestDistArgumentErrors:
    @pytest.mark.parametrize("argv, message", [
        (("--q", "2", "--rf", "1,2", "--rf2", "1,2,3"),
         "--rf needs 3 comma-separated numbers, got 2"),
        (("--q", "2", "--rf", "1,x,3", "--rf2", "1,2,3"),
         "--rf: non-numeric value in '1,x,3'"),
        (("--q", "two", "--rf", "1,2,3", "--rf2", "1,2,3"),
         "--q must be a number >= 1 or 'inf', got 'two'"),
        (("--q", "2"), "provide --rf/--rf2 or --basis/--basis2"),
    ])
    def test_reported_as_one_error_line(self, capsys, argv, message):
        assert run(capsys, "dist", *argv) == (1, "", f"error: {message}\n")


class TestQt:
    def test_square_and_hexagonal_anchors(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        dst = tmp_path / "qt.csv"
        code, _, _ = run(capsys, "qt", "-i", str(src), "-o", str(dst))
        assert code == 0
        rows = {ln.split(",")[0]: ln.split(",") for ln in dst.read_text().splitlines()[1:]}
        assert rows["sq"][1:] == ["0", "0"]
        assert float(rows["hexa"][2]) == pytest.approx(1 / 3, abs=1e-11)

    def test_signed_flag(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        dst = tmp_path / "qt.csv"
        run(capsys, "qt", "-i", str(src), "-o", str(dst), "--signed")
        rows = {ln.split(",")[0]: ln.split(",") for ln in dst.read_text().splitlines()[1:]}
        assert float(rows["mirror"][1]) < 0 < float(rows["skew"][1])
        assert float(rows["mirror"][1]) == pytest.approx(-float(rows["skew"][1]), rel=1e-11)


class TestGrid:
    def test_rootpair_grid(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("".join(f"r{i},ortho3,{3 + i},{9 + i},12\n" for i in range(5)))
        dst = tmp_path / "g.csv"
        pgm = tmp_path / "g.pgm"
        code, _, _ = run(
            capsys, "grid", "-i", str(src), "-o", str(dst), "--pgm", str(pgm),
            "--res", "10",
        )
        assert code == 0
        lines = dst.read_text().splitlines()
        assert lines[0] == "0,25,0,25,10"
        total = sum(int(c) for ln in lines[1:] for c in ln.split(","))
        assert total == 5
        assert pgm.read_bytes().startswith(b"P5\n10 10\n")

    def test_qt_grid_square_records_all_in_origin_pixel(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("".join(f"s{i},cell2,2,2,90\n" for i in range(50)))
        dst = tmp_path / "g.csv"
        code, _, _ = run(capsys, "grid", "-i", str(src), "-o", str(dst), "--mode", "qt", "--res", "8")
        assert code == 0
        lines = dst.read_text().splitlines()
        assert lines[0] == "0,0.5,0,0.333333333333,8"
        rows = [[int(c) for c in ln.split(",")] for ln in lines[1:]]
        assert rows[-1][0] == 50  # bottom row, first column = pixel (0, 0)
        assert sum(sum(r) for r in rows) == 50

    def test_qt_grid_defaults_to_the_projection_box(self, tmp_path, capsys):
        from rootforms.projection import _QT_BOX

        src = tmp_path / "in.csv"
        src.write_text("s,cell2,2,2,90\n")
        dst = tmp_path / "g.csv"
        assert run(capsys, "grid", "-i", str(src), "-o", str(dst), "--mode", "qt", "--res", "4")[0] == 0
        assert dst.read_text().splitlines()[0] == ",".join([*map(format_number, _QT_BOX), "4"])

    def test_thread_count_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.csv"
        src.write_text("".join(f"m{i},mono3,{4 + i % 7},9,{6 + i % 5},{70 + i % 40}\n" for i in range(60)))
        outs = []
        for threads in ("1", "5"):
            monkeypatch.setenv("LATTICE_THREADS", threads)
            dst = tmp_path / f"g{threads}.csv"
            code, _, _ = run(capsys, "grid", "-i", str(src), "-o", str(dst), "--mode", "qt")
            assert code == 0
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]


class TestVoronoi:
    def test_square_output(self, capsys):
        code, out, _ = run(capsys, "voronoi", "--basis", "1,0,0,1")
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2
        vec_lines = blocks[0].splitlines()
        assert vec_lines[0] == "c1,c2,x,y,strict"
        strict_flags = [ln.split(",")[4] for ln in vec_lines[1:]]
        assert strict_flags.count("true") == 4
        assert strict_flags.count("false") == 4
        vert_lines = blocks[1].splitlines()
        assert vert_lines[0] == "x,y"
        verts = {tuple(float(v) for v in ln.split(",")) for ln in vert_lines[1:]}
        assert verts == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_computes_the_vectors_once(self, capsys, monkeypatch):
        from rootforms import voronoi

        calls, vectors = [], voronoi.voronoi_vectors

        def counted(b):
            calls.append(b)
            return vectors(b)

        monkeypatch.setattr(voronoi, "voronoi_vectors", counted)
        code, _, _ = run(capsys, "voronoi", "--basis", "3,0,-1,3")
        assert code == 0
        assert calls == [Basis2(Vec2(3, 0), Vec2(-1, 3))]

    def test_bytes_equal_the_public_api(self, capsys):
        from rootforms import voronoi_domain, voronoi_vectors

        rng = make_rng(1301)
        bases = [random_basis(rng) for _ in range(30)]
        for _ in range(30):  # near-rectangular, some inside the tie band
            eps = 10.0 ** float(rng.uniform(-13.0, -6.0)) * float(rng.choice([-1.0, 1.0]))
            bases.append(Basis2(Vec2(1.0, 0.0), Vec2(eps, float(rng.uniform(0.5, 2.0)))))
        for b in bases:
            text = ",".join(repr(float(c)) for c in (*b.v1, *b.v2))
            code, out, _ = run(capsys, "voronoi", f"--basis={text}")  # = for a leading minus
            assert code == 0
            rows = [",".join([str(v.coeffs[0]), str(v.coeffs[1]), format_number(v.vector.x),
                              format_number(v.vector.y), "true" if v.strict else "false"])
                    for v in voronoi_vectors(b)]
            verts = [f"{format_number(p.x)},{format_number(p.y)}" for p in voronoi_domain(b).vertices]
            assert out == "\n".join(["c1,c2,x,y,strict", *rows, "", "x,y", *verts]) + "\n", b


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env(**overrides):
    env = {k: v for k, v in os.environ.items() if k != "LATTICE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(overrides)
    return env


class TestStartup:
    def test_import_leaves_numpy_and_thread_pool_unloaded(self):
        probe = (
            "import sys, rootforms, rootforms.cli; "
            "from rootforms import RootForm, reconstruct_superbase as sb; "
            "a, b = RootForm(0.5, 1.0, 1.6), RootForm(0.6, 1.0, 1.5); "
            "rootforms.superbase_distance_linf(sb(a), sb(b)); rootforms.root_metric(a, b); "
            "print(sorted(m for m in ('numpy', 'concurrent.futures') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        # the value types are named tuples, so importing the package and its
        # CLI pulls in none of these; a module that the bare interpreter's
        # site hooks load already is not the package's
        heavy = ("dataclasses", "inspect", "ast", "dis")
        probe = "import sys{}; print(' '.join(m for m in {!r} if m in sys.modules))"
        loaded = []
        for imports in ("", ", rootforms, rootforms.cli"):
            proc = subprocess.run(
                [sys.executable, "-c", probe.format(imports, heavy)], env=_child_env(),
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            loaded.append(set(proc.stdout.split()))
        assert loaded[1] <= loaded[0], loaded[1] - loaded[0]

    def test_grid_leaves_numpy_unloaded(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        argv = ["grid", "-i", str(src), "-o", str(tmp_path / "g.csv"),
                "--pgm", str(tmp_path / "g.pgm"), "--res", "16"]
        probe = (
            "import sys, rootforms.cli; "
            f"code = rootforms.cli.main({argv!r}); "
            "print(code, 'numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"
        assert (tmp_path / "g.pgm").read_bytes().startswith(b"P5\n16 16\n")

    def test_lattice_threads_is_ignored(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS + "bad,basis,1,0,2,0\n")
        outputs = []
        for threads in (None, "0", "abc", "64"):
            env = _child_env() if threads is None else _child_env(LATTICE_THREADS=threads)
            csv_path, pgm_path = tmp_path / "g.csv", tmp_path / "g.pgm"
            grid = subprocess.run(
                [sys.executable, "-m", "rootforms", "grid", "-i", str(src), "-o", str(csv_path),
                 "--pgm", str(pgm_path), "--res", "16", "--lenient"],
                env=env, capture_output=True, timeout=60,
            )
            forms = subprocess.run(
                [sys.executable, "-m", "rootforms", "rootform", "-i", str(src), "--oriented",
                 "--lenient"],
                env=env, capture_output=True, timeout=60,
            )
            assert (grid.returncode, forms.returncode) == (0, 0), (threads, grid.stderr, forms.stderr)
            outputs.append((csv_path.read_bytes(), pgm_path.read_bytes(), grid.stderr,
                            forms.stdout, forms.stderr))
        assert all(out == outputs[0] for out in outputs)
        assert b"skipped record 'bad'" in outputs[0][4]

    # a start imports only the modules of the subcommand it runs
    @pytest.mark.parametrize("argv, loads, leaves", [
        (["rootform", "-i", "F", "-o", "G"], (),
         ("rootforms.voronoi", "rootforms.metrics", "rootforms.projection", "array")),
        (["qt", "-i", "F", "-o", "G"], ("rootforms.projection",),
         ("rootforms.voronoi", "rootforms.metrics")),
        (["grid", "-i", "F", "-o", "G", "--pgm", "G.pgm", "--res", "16"],
         ("rootforms.projection",),
         ("rootforms.voronoi", "rootforms.metrics", "tempfile", "shutil")),
        (["dist", "--q", "2", "--rf", "1,2,3", "--rf2", "1,2,4"], ("rootforms.metrics",),
         ("rootforms.voronoi", "rootforms.projection", "tempfile", "shutil")),
        (["voronoi", "--basis", "1,0,0,1"], ("rootforms.voronoi",),
         ("rootforms.metrics", "rootforms.projection", "tempfile", "shutil")),
    ])
    def test_a_subcommand_imports_only_its_own_modules(self, tmp_path, argv, loads, leaves):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        argv = [str(src) if a == "F" else str(tmp_path / a) if a.startswith("G") else a
                for a in argv]
        watched = loads + leaves
        probe = (
            "import runpy, sys\n"
            f"sys.argv = ['rootforms', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('rootforms', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)\n"
            f"print(*(m for m in {watched!r} if m in sys.modules))\n"
        )
        bare = f"import sys; print(*(m for m in {watched!r} if m in sys.modules))"
        loaded = []
        for code in (bare, probe):
            proc = subprocess.run(
                [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            loaded.append(proc.stdout.splitlines())
        assert loaded[1][-2] == "0", loaded[1]
        # a module that the bare interpreter's site hooks load already is not the package's
        assert set(loaded[1][-1].split()) - set(loaded[0][-1].split()) == set(loads)

    def test_only_the_program_entry_freezes_the_start_up_heap(self, tmp_path):
        # gc.freeze() spares the collections at interpreter exit the start-up
        # heap; an import or a call main([...]) leaves a host's collector alone
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        argv = ["rootform", "-i", str(src), "-o", str(tmp_path / "out.csv")]
        probes = {
            "import": "import rootforms, rootforms.cli\n",
            "call": f"import rootforms.cli\nprint(rootforms.cli.main({argv!r}))\n",
            "entry": (
                "import runpy\n"
                f"sys.argv = ['rootforms', *{argv!r}]\n"
                "try:\n"
                "    runpy.run_module('rootforms', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    print(exc.code)\n"
            ),
        }
        frozen = {}
        for name, probe in probes.items():
            code = ("import gc, sys\nbefore = gc.get_freeze_count()\n" + probe
                    + "print(before, gc.get_freeze_count())\n")
            proc = subprocess.run(
                [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            *codes, counts = proc.stdout.splitlines()
            assert codes == ([] if name == "import" else ["0"]), (name, proc.stdout)
            frozen[name] = tuple(map(int, counts.split()))
        assert frozen["import"][1] == frozen["import"][0]
        assert frozen["call"][1] == frozen["call"][0]
        assert frozen["entry"][1] > frozen["entry"][0]

    # a CLI child under development mode, an unclosed file an error, exits
    # with only its own warning and error lines: nothing left open or ignored
    @pytest.mark.parametrize("case", ["clean", "lenient", "strict"])
    @pytest.mark.parametrize("command", ["rootform", "qt", "grid"])
    def test_a_dev_mode_child_exits_cleanly(self, tmp_path, command, case):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS + ("" if case == "clean" else "bad,basis,1,0,2,0\n"))
        argv = {"rootform": ["rootform", "-i", str(src)],
                "qt": ["qt", "-i", str(src), "-o", str(tmp_path / "q.csv")],
                "grid": ["grid", "-i", str(src), "-o", str(tmp_path / "g.csv"),
                         "--pgm", str(tmp_path / "g.pgm"), "--res", "16"]}[command]
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "rootforms",
             *argv, *(["--lenient"] if case == "lenient" else [])],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        reason = "record 'bad' (line 8): basis determinant 0 below tolerance for scale 2\n"
        assert (proc.returncode, proc.stderr) == {
            "clean": (0, ""), "lenient": (0, "warning: skipped " + reason),
            "strict": (1, "error: " + reason)}[case]
        assert (proc.stdout.startswith("id,r12,r01,r02,sign\n")
                == (command == "rootform" and case != "strict")), proc.stdout

    def test_import_loads_no_submodule(self):
        probe = "import sys, rootforms; print(sorted(m for m in sys.modules if 'rootforms.' in m))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# The public names of the package, by the submodule that defines them, as the
# package listed them when its __init__ imported every submodule up front.
PUBLIC = {
    "errors": ("DegenerateBasis", "DegenerateLattice", "InvalidGridSpec", "LatticeError",
               "NegativeConorm", "ParseError"),
    "lattice": ("Basis2", "ConormTriple", "LatticeSign", "ObtuseSuperbase", "OrientedRootForm",
                "RootForm", "Superbase2", "Vec2", "VonormTriple", "conorms",
                "conorms_from_vonorms", "oriented_root_form", "reduce_to_obtuse", "root_form",
                "root_form_from_values", "squared_norm_from_conorms", "superbase_from_basis",
                "vonorms", "vonorms_from_conorms"),
    "metrics": ("continuity_bound", "root_metric", "root_metric_oriented",
                "superbase_distance_linf"),
    "projection": ("BarycentricTriple", "QTPoint", "reconstruct_superbase", "to_full_triangle",
                   "to_quotient_triangle", "to_quotient_triangle_oriented"),
    "records": ("DensityGrid", "GridSpec", "LatticeRecord", "accumulate_grid", "emit_grid",
                "parse_records", "project_to_2d"),
    "voronoi": ("VoronoiDomainPolygon", "VoronoiVector", "verify_partial_sums", "voronoi_domain",
                "voronoi_vectors"),
}
PUBLIC_NAMES = sorted({*PUBLIC, *(n for names in PUBLIC.values() for n in names)})


class TestPackageNamespace:
    def test_each_name_is_its_submodules_object(self):
        import rootforms

        for module, names in PUBLIC.items():
            sub = importlib.import_module(f"rootforms.{module}")
            assert getattr(rootforms, module) is sub
            for name in names:
                assert getattr(rootforms, name) is getattr(sub, name), name

    def test_a_bare_import_lists_and_resolves_every_name(self):
        # in a fresh interpreter, where no submodule is loaded before the names are used
        probe = (
            "import rootforms\n"
            "print(*(n for n in dir(rootforms) if not n.startswith('_')))\n"
            "print(rootforms.voronoi.voronoi_vectors.__module__)\n"
            "ns = {}\n"
            "exec('from rootforms import *', ns)\n"
            "print(*sorted(n for n in ns if n != '__builtins__'))\n"
            "print(*sorted(n for n in dir(rootforms) if not n.startswith('_')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        listed, home, starred, resolved = proc.stdout.splitlines()
        assert len(PUBLIC_NAMES) == 53
        assert listed.split() == PUBLIC_NAMES
        assert home == "rootforms.voronoi"
        assert starred.split() == PUBLIC_NAMES
        assert resolved.split() == PUBLIC_NAMES

    def test_an_unknown_name_is_an_attribute_error(self):
        import rootforms

        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            rootforms.nope
        with pytest.raises(ImportError):
            from rootforms import nope  # noqa: F401


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that exits, or its parsed values."""
    try:
        values = vars(parse(argv))
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())
    return values


# one command per argv[0], and argvs that argparse rejects or answers with help
VALID_ARGV = [
    ["reduce", "--basis", "1,0,0,1"],
    ["rootform", "-i", "x"],
    ["rootform", "--input=x", "-o", "y", "--oriented", "--lenient"],
    ["dist", "--q", "inf", "--rf", "1,2,3", "--rf2", "1,2,4", "--oriented"],
    ["dist", "--q", "2", "--basis", "1,0,0,1", "--basis2", "1,0,0.5,1"],
    ["qt", "-i", "x", "-o", "y", "--signed"],
    ["grid", "-i", "x", "-o", "y", "--pgm", "z", "--xmin", "1", "--ymax", "2", "--res", "9",
     "--mode", "qt", "--lenient"],
    ["voronoi", "--basis", "1,0,0,1"],
]
BAD_ARGV = [
    [], ["bogus"], ["-- rootform"], ["--", "rootform"], ["--", "rootform", "-i", "x"], ["rootform", "-i", "x", "--bogus"],
    ["grid", "--mode", "bad"], ["reduce", "--basis", "1,0,0,1", "extra"], ["-h"],
    ["--help", "rootform"], ["bogus", "-h"], ["Rootform"], ["root"], ["rootform"],
    ["reduce"], ["dist", "--q"], ["qt", "-i", "x"], ["grid", "-i", "x", "-o", "y", "--res", "a"],
    ["voronoi", "--basis"], ["rootform", "-i", "x", "reduce", "--basis", "1,0,0,1"],
    ["dist", "--rf", "1,2,3"],
    # the command's own option strings stay options, and so does every token after "--"
    ["reduce", "--basis", "-h"],
    ["rootform", "-i", "--lenient"], ["grid", "-i", "x", "-o", "y", "--xmin", "--lenient"],
    ["reduce", "--basis", "1,0,0,1", "--", "--basis", "-1,0,0,1"],
    # also with "=value", and so when such an option takes a dash value of its own
    ["rootform", "-i", "--output=y"], ["rootform", "-i", "-o", "-x"],
    # a prefix of several option strings stays ambiguous, and one of -h/--help asks for help
    ["dist", "--q", "2", "--bas", "-1,0,0,1"], ["grid", "-i", "x", "-o", "y", "--xm", "-1"],
    ["rootform", "-i", "x", "--o", "-1"], ["reduce", "--h", "-1,0,0,1"],
]


class TestParserParity:
    """A parser built for one command behaves as the parser of all six."""

    @pytest.mark.parametrize("command", ["reduce", "rootform", "dist", "qt", "grid", "voronoi"])
    def test_subcommand_help(self, capsys, command):
        argv = [command, "-h"]
        every = _parse_outcome(capsys, cli._build_parser().parse_args, argv)
        assert every[0] == 0 and every[1].startswith(f"usage: rootforms {command} [-h]")
        # built for the command, or for an argv[0] that names none and so gets all arguments
        for built_for in (command, "-h", "bogus", "--"):
            assert _parse_outcome(capsys, cli._build_parser(built_for).parse_args, argv) == every

    @pytest.mark.parametrize("argv", VALID_ARGV)
    def test_parsed_values(self, capsys, argv):
        one = _parse_outcome(capsys, cli._build_parser(argv[0]).parse_args, argv)
        every = _parse_outcome(capsys, cli._build_parser().parse_args, argv)
        assert one == every
        assert isinstance(one, dict) and one["func"].__name__.startswith("_cmd_")

    @pytest.mark.parametrize("argv", BAD_ARGV)
    def test_rejected_argv(self, capsys, argv):
        one = _parse_outcome(capsys, main, argv)
        every = _parse_outcome(capsys, cli._build_parser().parse_args, argv)
        assert one == every
        assert one[0] in (0, 2)

    def test_usage_lists_every_command(self, capsys):
        code, out, err = _parse_outcome(capsys, main, ["rootform", "-i", "x", "--bogus"])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "usage: rootforms [-h] {reduce,rootform,dist,qt,grid,voronoi} ...",
            "rootforms: error: unrecognized arguments: --bogus",
        ]


class TestNegativeValues:
    """A value flag takes the next argument as its value, also one that starts with "-"."""

    @pytest.mark.parametrize("argv, code", [
        (["reduce", "--basis", "-1,0,0,1"], 0),
        (["voronoi", "--basis", "-1,0,0,1"], 0),
        (["dist", "--q", "2", "--basis", "1,0,0,1", "--basis2", "-1,0.5,0,1"], 0),
        # a unique prefix of a value flag, as argparse abbreviates it
        (["reduce", "--bas", "-1,0,0,1"], 0),
        (["voronoi", "--b", "-1,0,0,1"], 0),
        (["dist", "--q", "inf", "--rf", "1,2,3", "--rf2", "-1,2,3"], 1),
        # inf, infinity and nan in any case are numbers too
        (["reduce", "--basis", "-inf,0,0,1"], 1),
        (["reduce", "--bas", "-Infinity,0,0,1"], 1),
        (["reduce", "--basis", "-NaN,0,0,1"], 1),
        (["dist", "--q", "2", "--basis", "1,0,0,1", "--basis2", "-1,-INF,0,1"], 1),
        (["dist", "--q", "-inf", "--rf", "1,2,3", "--rf2", "1,2,4"], 1),
    ])
    def test_prints_the_bytes_of_the_equals_form(self, capsys, argv, code):
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        spaced = run(capsys, *argv)
        assert spaced[0] == code and spaced == run(capsys, *joined)

    def test_non_finite_basis_error(self, capsys):
        assert run(capsys, "reduce", "--basis", "-inf,0,0,1") == (
            1, "", "error: non-finite vector (-inf, 0.0)\n")

    @pytest.mark.parametrize("value, message", [
        ("-x", "--basis needs 4 comma-separated numbers, got 1"),
        ("-1-2,0,0,1", "--basis: non-numeric value in '-1-2,0,0,1'"),
        ("-infin,0,0,1", "--basis: non-numeric value in '-infin,0,0,1'"),
    ])
    def test_a_dash_value_that_is_no_number_list_is_a_value_error(self, capsys, value, message):
        assert run(capsys, "reduce", "--basis", value) == (1, "", f"error: {message}\n")

    def test_files_whose_names_start_with_a_dash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-a.csv").write_text(RECORDS)
        (tmp_path / "a.csv").write_text(RECORDS)
        dashed = run(capsys, "rootform", "-i", "-a.csv")
        assert dashed[0] == 0 and dashed == run(capsys, "rootform", "-i", "a.csv")
        for prefix in ("-", ""):
            assert run(capsys, "grid", "-i", f"{prefix}a.csv", "-o", f"{prefix}g.csv",
                       "--pgm", f"{prefix}m.pgm", "--res", "7") == (0, "", "")
        for name in ("g.csv", "m.pgm"):
            assert (tmp_path / f"-{name}").read_bytes() == (tmp_path / name).read_bytes()

    def test_reduce_row(self, capsys):
        assert run(capsys, "reduce", "--basis", "-1,0,0,1") == (0, (
            "v0x,v0y,v1x,v1y,v2x,v2y,p12,p01,p02,r12,r01,r02,sign,steps\n"
            "1,-1,-1,0,0,1,0,1,1,0,1,1,neutral,0\n"), "")

    def test_grid_writes_the_files_of_the_equals_form(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        files = []
        for name, bounds in [("spaced", ["--xmin", "-1e-3", "--ymin", "-0.5"]),
                             ("abbreviated", ["--xmi", "-1e-3", "--ymi", "-0.5"]),
                             ("joined", ["--xmin=-1e-3", "--ymin=-0.5"])]:
            csv, pgm = tmp_path / f"{name}.csv", tmp_path / f"{name}.pgm"
            assert run(capsys, "grid", "-i", str(src), "-o", str(csv), "--pgm", str(pgm),
                       "--res", "7", *bounds) == (0, "", "")
            files.append((csv.read_bytes(), pgm.read_bytes()))
        assert files[0] == files[1] == files[2]

    def test_commands_are_looked_up_when_the_parser_is_built(self, capsys, monkeypatch):
        # the benchmark's traced runs replace cli._cmd_* before they call main
        monkeypatch.setattr(cli, "_cmd_reduce", lambda args: print("patched", args.basis) or 0)
        assert run(capsys, "reduce", "--basis", "1,0,0,1") == (0, "patched 1,0,0,1\n", "")


class TestOutputFiles:
    @pytest.mark.parametrize("command", ["rootform", "qt"])
    def test_non_ascii_id_writes_the_same_bytes_to_a_file_as_to_stdout(self, tmp_path, command):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("é1,basis,1,0,0,1\n", encoding="utf-8")
        dst.write_bytes(b"old\n")
        outputs = []
        for target in (str(dst), "-"):
            proc = subprocess.run(
                [sys.executable, "-m", "rootforms", command, "-i", str(src), "-o", target],
                env=_child_env(PYTHONIOENCODING="utf-8"), capture_output=True, timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == b""
        row = "é1,0,1,1,neutral" if command == "rootform" else "é1,0,0"
        assert dst.read_bytes() == outputs[1] == (
            f"{'id,r12,r01,r02,sign' if command == 'rootform' else 'id,x,y'}\n{row}\n"
        ).encode("utf-8")


class TestInputDecoding:
    """A leading byte-order mark is skipped; a byte that is not UTF-8 fails its
    line, which --lenient skips, except in a comment."""

    BOM = b"\xef\xbb\xbf"
    BAD_ID = b"a,basis,1,0,0,1\nb\xff,basis,1,0,0,1\nc,cell2,2,2,90\n"

    @pytest.mark.parametrize("command, header, row", [
        ("rootform", "id,r12,r01,r02,sign", "a,0,1,1,neutral"),
        ("qt", "id,x,y", "a,0,0"),
    ])
    def test_bom_before_a_comment_line(self, tmp_path, capsys, command, header, row):
        src = tmp_path / "in.csv"
        src.write_bytes(self.BOM + b"# heading\na,basis,1,0,0,1\n")
        assert run(capsys, command, "-i", str(src), "-o", "-") == (0, f"{header}\n{row}\n", "")

    def test_bom_before_the_first_id_is_not_part_of_it(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_bytes(self.BOM + b"a,basis,1,0,0,1\nb,cell2,1,1,90\n")
        assert run(capsys, "rootform", "-i", str(src)) == (
            0, "id,r12,r01,r02,sign\na,0,1,1,neutral\nb,0,1,1,neutral\n", "")

    @pytest.mark.parametrize("command", ["rootform", "qt", "grid"])
    def test_an_undecodable_id_fails_its_line(self, tmp_path, capsys, command):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_bytes(self.BAD_ID)
        assert run(capsys, *_file_command(command, src, dst)) == (
            1, "", "error: line 2: record id is not valid UTF-8\n")
        assert not dst.exists()

    def test_lenient_skips_an_undecodable_id_with_one_warning(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_bytes(self.BAD_ID)
        assert run(capsys, "rootform", "-i", str(src), "--lenient") == (
            0, "id,r12,r01,r02,sign\na,0,1,1,neutral\nc,0,2,2,neutral\n",
            "warning: skipped line 2: record id is not valid UTF-8\n")

    def test_undecodable_bytes_in_a_comment_are_ignored(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_bytes(b"# \xff\xfe heading\na,basis,1,0,0,1  # caf\xe9\n")
        assert run(capsys, "rootform", "-i", str(src)) == (
            0, "id,r12,r01,r02,sign\na,0,1,1,neutral\n", "")

    @pytest.mark.parametrize("line, reason", [
        (b"a,bas\xffis,1,0,0,1", "unknown kind 'bas\\udcffis'"),
        (b"a,basis,1,0\xff,0,1", "non-numeric parameter in ['1', '0\\udcff', '0', '1']"),
    ])
    def test_undecodable_bytes_elsewhere_fail_as_the_field_does(self, tmp_path, capsys, line,
                                                                reason):
        src = tmp_path / "in.csv"
        src.write_bytes(line + b"\n")
        assert run(capsys, "rootform", "-i", str(src)) == (1, "", f"error: line 1: {reason}\n")


class TestFileErrors:
    @pytest.mark.parametrize("case", ["missing-input", "missing-output-dir"])
    def test_reported_as_one_error_line(self, tmp_path, case):
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        if case == "missing-input":
            argv = ["rootform", "-i", str(tmp_path / "missing.csv")]
        else:
            argv = ["grid", "-i", str(src), "-o", str(tmp_path / "missing" / "g.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "rootforms", *argv], env=_child_env(), capture_output=True,
            text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "No such file or directory" in proc.stderr


# a record error on line 2 before a parse error on line 3, and the reverse
RECORD_THEN_PARSE = "ok,cell2,1,1,90\ncollinear,basis,1,0,2,0\nbad,cell2,1,1,999\n"
PARSE_THEN_RECORD = "ok,cell2,1,1,90\nbad,cell2,1,1,999\ncollinear,basis,1,0,2,0\n"


def _file_command(command, src, dst):
    return {
        "rootform": ["rootform", "-i", str(src), "-o", str(dst)],
        "qt": ["qt", "-i", str(src), "-o", str(dst)],
        "grid": ["grid", "-i", str(src), "-o", str(dst), "--pgm", f"{dst}.pgm", "--res", "8"],
    }[command]


class TestStreaming:
    @pytest.mark.parametrize("command", ["rootform", "qt", "grid"])
    def test_lenient_warnings_come_in_line_order(self, tmp_path, capsys, command):
        src = tmp_path / "in.csv"
        src.write_text(RECORD_THEN_PARSE)
        code, _, err = run(capsys, *_file_command(command, src, tmp_path / "out"), "--lenient")
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: skipped record 'collinear' (line 2): ")
        assert lines[1].startswith("warning: skipped line 3: angle 999")

    @pytest.mark.parametrize("command", ["rootform", "qt", "grid"])
    @pytest.mark.parametrize("text, first", [
        (RECORD_THEN_PARSE, "error: record 'collinear' (line 2): "),
        (PARSE_THEN_RECORD, "error: line 2: angle 999"),
    ], ids=["record-error-first", "parse-error-first"])
    def test_strict_mode_stops_at_the_first_bad_line_and_writes_no_file(
        self, tmp_path, capsys, command, text, first
    ):
        src = tmp_path / "in.csv"
        src.write_text(text)
        code, out, err = run(capsys, *_file_command(command, src, tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.startswith(first) and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [src]

    def test_line_numbers_count_only_newlines(self, tmp_path, capsys):
        # a line ends only at "\n", with or without a "\r" before it; every
        # other separator stays inside its line, which fails as one bad line
        kinds = [f"k{i}{sep}x{i}" for i, sep in enumerate(LINE_SEPARATORS)]
        src = tmp_path / "in.csv"
        with open(src, "w", encoding="utf-8", newline="") as fh:
            for i, kind in enumerate(kinds):
                fh.write(f"r{i},{kind}" + ("\r\n" if i % 2 else "\n"))
            fh.write("sq,cell2,1,1,90\r\n")
        code, out, err = run(capsys, "rootform", "-i", str(src), "--lenient")
        assert code == 0
        assert err.splitlines() == [
            f"warning: skipped line {i + 1}: unknown kind {kind!r}" for i, kind in enumerate(kinds)
        ]
        assert out.splitlines()[1:] == ["sq,0,1,1,neutral"]

    def test_grid_options_are_checked_before_the_input_is_read(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(RECORD_THEN_PARSE)
        code, _, err = run(capsys, *_file_command("grid", src, tmp_path / "out"), "--res", "0")
        assert code == 1
        assert err == "error: resolution must be a positive integer, got 0\n"

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def write_grid(grid, fmt, out):
            raise MemoryError

        monkeypatch.setattr("rootforms.cli._write_grid", write_grid)
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        dst = tmp_path / "out"
        pgm = tmp_path / "out.pgm"
        code, out, err = run(capsys, *_file_command("grid", src, dst))
        assert (code, out, err) == (1, "", "error: out of memory in grid\n")
        # a failed emit creates no file ...
        assert not dst.exists() and not pgm.exists()
        # ... and leaves the bytes of existing ones as they were
        dst.write_bytes(b"old csv\n")
        pgm.write_bytes(b"old pgm\n")
        code, out, err = run(capsys, *_file_command("grid", src, dst))
        assert (code, out, err) == (1, "", "error: out of memory in grid\n")
        assert (dst.read_bytes(), pgm.read_bytes()) == (b"old csv\n", b"old pgm\n")

    def test_a_large_raster_is_written_under_an_address_space_cap(self, tmp_path):
        # the cap is a res-1 run's VmPeak plus half the CSV body at --res 4000:
        # an emit that held the raster in memory, 32 MB here, would not fit
        resource = pytest.importorskip("resource")
        if not os.path.exists("/proc/self/status"):
            pytest.skip("VmPeak is read from /proc/self/status")
        src = tmp_path / "one.csv"
        src.write_text("a,cell2,1,1,90\n")
        # main, then this process's VmPeak in kB, so both runs start alike
        script = ("import sys; from rootforms.cli import main; code = main(sys.argv[1:]); "
                  "status = open('/proc/self/status').read(); "
                  "print(status.split('VmPeak:')[1].split()[0]); sys.exit(code)")

        def grid(res, limit=None):
            def cap_address_space():  # runs in the child, so the limit binds only there
                hard = resource.getrlimit(resource.RLIMIT_AS)[1]
                soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
                resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

            argv = ["grid", "-i", str(src), "-o", str(tmp_path / f"g{res}.csv"),
                    "--pgm", str(tmp_path / f"g{res}.pgm"), "--res", str(res)]
            return subprocess.run(
                [sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True,
                text=True, timeout=120, preexec_fn=None if limit is None else cap_address_space,
            )

        base = grid(1)
        assert (base.returncode, base.stderr) == (0, "")
        limit = int(base.stdout) * 1024 + 4000 * 4000
        big = grid(4000, limit)
        assert (big.returncode, big.stderr) == (0, "")
        want = accumulate_grid([(1.0, 1.0)], GridSpec(0.0, 25.0, 0.0, 25.0, 4000))  # the square's root pair
        for fmt in ("csv", "pgm"):
            data = (tmp_path / f"g4000.{fmt}").read_bytes()
            assert data == reference_emit_grid(want, fmt)

    def test_failed_pgm_emit_keeps_the_old_pgm(self, tmp_path, capsys, monkeypatch):
        def write_grid(grid, fmt, out):
            if fmt == "pgm":
                raise MemoryError
            records_write_grid(grid, fmt, out)

        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        dst = tmp_path / "out"
        pgm = tmp_path / "out.pgm"
        assert run(capsys, *_file_command("grid", src, dst))[0] == 0
        want_csv = dst.read_bytes()
        dst.unlink()
        pgm.write_bytes(b"old pgm\n")
        monkeypatch.setattr("rootforms.cli._write_grid", write_grid)
        code, out, err = run(capsys, *_file_command("grid", src, dst))
        assert (code, out, err) == (1, "", "error: out of memory in grid\n")
        assert (dst.read_bytes(), pgm.read_bytes()) == (want_csv, b"old pgm\n")

    def test_grid_holds_one_output_at_a_time(self, tmp_path, capsys):
        # the CSV's bytes are freed before the PGM's are built, so asking for
        # the PGM too does not raise the peak, which the CSV emit sets
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        argv = ["grid", "-i", str(src), "-o", str(tmp_path / "g.csv"), "--res", "400"]
        peaks = []
        for extra in ([], ["--pgm", str(tmp_path / "g.pgm")]):
            assert main(argv + extra) == 0  # warm-up
            tracemalloc.start()
            try:
                assert main(argv + extra) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr() == ("", "")
        assert peaks[1] < peaks[0] + (tmp_path / "g.csv").stat().st_size / 4

    def test_grid_peak_memory_does_not_grow_with_the_record_count(self, tmp_path, capsys):
        # each record is binned as it is read, so only the res^2 counts stay
        base = tmp_path / "base.csv"
        _mixed_record_file(base)
        good = base.read_text().splitlines()[:-5]  # drop the bad records
        argvs = []
        for n in (200, 2000, 20000):
            src = tmp_path / f"in{n}.csv"
            src.write_text("".join(f"t{i}{good[i % len(good)]}\n" for i in range(n)))
            argvs.append(["grid", "-i", str(src), "-o", str(tmp_path / "g.csv"), "--mode", "qt",
                          "--res", "16"])
        assert main(argvs[0]) == 0  # warm-up
        peaks = []
        for argv in argvs[1:]:
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr() == ("", "")
        assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks

    def test_grid_peak_memory_does_not_grow_with_the_resolution(self, tmp_path, capsys):
        # the files go out in bands of rows, so no buffer grows with res^2:
        # the CSV and the PGM at --res 2000 take 8 MB and 4 MB
        src = tmp_path / "in.csv"
        src.write_text(RECORDS)
        peaks = []
        for res in (200, 200, 2000):  # the first run warms up
            argv = ["grid", "-i", str(src), "-o", str(tmp_path / "g.csv"),
                    "--pgm", str(tmp_path / "g.pgm"), "--res", str(res)]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / "g.csv").stat().st_size > 8_000_000
        assert abs(peaks[2] - peaks[1]) < 1_000_000, peaks

    @pytest.mark.parametrize("peak", [200, 400], ids=["8-bit", "16-bit"])
    def test_grid_writes_a_file_named_dash(self, tmp_path, capsys, monkeypatch, peak):
        # "-" is stdout for rootform and qt, but grid's -o and --pgm are file
        # paths, so a PGM sample of 0x80 or more never meets stdout's text layer
        monkeypatch.chdir(tmp_path)
        Path("in.csv").write_text("sq,cell2,2,2,90\n" * peak + "hexa,cell2,1,1,120\n" * 5)
        args = ["grid", "-i", "in.csv", "--res", "8"]
        assert run(capsys, *args, "-o", "want.csv", "--pgm", "want.pgm") == (0, "", "")
        assert run(capsys, *args, "-o", "got.csv", "--pgm", "-") == (0, "", "")
        assert Path("-").read_bytes() == Path("want.pgm").read_bytes()
        assert max(Path("-").read_bytes()) >= 0x80
        assert run(capsys, *args, "-o", "-") == (0, "", "")
        assert Path("-").read_bytes() == Path("want.csv").read_bytes()


@pytest.mark.parametrize("command", ["rootform", "qt", "grid"])
class TestRowSink:
    def test_a_strict_run_failing_on_its_last_line_keeps_the_old_output(
        self, tmp_path, capsys, command
    ):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text(RECORDS + "collinear,basis,1,0,2,0\n")
        dst.write_bytes(b"old\n")
        code, out, err = run(capsys, *_file_command(command, src, dst))
        assert (code, out) == (1, "")
        assert err.startswith("error: record 'collinear' (line 8): ") and err.count("\n") == 1
        assert dst.read_bytes() == b"old\n"

    def test_the_input_file_can_be_the_output_file(self, tmp_path, capsys, command):
        src, want = tmp_path / "in.csv", tmp_path / "want.csv"
        src.write_text(RECORDS)
        assert run(capsys, *_file_command(command, src, want)) == (0, "", "")
        assert run(capsys, *_file_command(command, src, src)) == (0, "", "")
        assert src.read_bytes() == want.read_bytes()
        # the header and six rows, or eight rows of an 8 x 8 grid
        assert len(src.read_text().splitlines()) == (9 if command == "grid" else 7)

    def test_an_unusable_temp_directory_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text(RECORDS)
        dst.write_bytes(b"old\n")
        code, out, err = run(capsys, *_file_command(command, src, dst))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory" in err
        assert dst.read_bytes() == b"old\n"

    def test_a_full_disk_is_one_error_line(self, tmp_path, capsys, monkeypatch, command):
        # the spool's second write fails as on a full disk: the spool goes, and
        # the -o and --pgm files keep their bytes
        spool_dir, spools = tmp_path / "spool", []
        spool_dir.mkdir()

        class FullDisk:
            def __init__(self):
                self.file = tempfile.NamedTemporaryFile(dir=spool_dir)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def __getattr__(self, name):
                return getattr(self.file, name)

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.file.write(data)

        def temporary_file(*args, **kwargs):
            spools.append(FullDisk())
            return spools[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text(RECORDS)
        dst.write_bytes(b"old\n")
        pgm = tmp_path / "out.csv.pgm"
        pgm.write_bytes(b"old pgm\n")
        code, out, err = run(capsys, *_file_command(command, src, dst))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert len(spools) == 1 and spools[0].file.closed
        assert list(spool_dir.iterdir()) == []
        assert (dst.read_bytes(), pgm.read_bytes()) == (b"old\n", b"old pgm\n")

    def test_peak_memory_does_not_grow_with_the_record_count(self, tmp_path, capsys, command):
        # rows go to the spool 1024 at a time, so no row list grows with the file
        base = tmp_path / "base.csv"
        _mixed_record_file(base)
        good = base.read_text().splitlines()[:-5]  # drop the bad records
        argvs = []
        for n in (2000, 20000):
            src = tmp_path / f"in{n}.csv"
            src.write_text("".join(f"t{i}{good[i % len(good)]}\n" for i in range(n)))
            argvs.append(_file_command(command, src, tmp_path / "out.csv"))
        assert main(argvs[0]) == 0  # warm-up
        peaks = []
        for argv in argvs:
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr() == ("", "")
        assert peaks[1] < 2 * peaks[0], peaks  # it grew 8-9x when rows were kept in a list


def _mixed_record_file(path, seed=20261018, n=240):
    """Seeded records of all four kinds, at several scales, plus bad ones."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        kind = ("basis", "cell2", "ortho3", "mono3")[i % 4]
        f = 10.0 ** rng.choice((0, 0, 0, -80, 80))
        if kind == "basis":
            params = [f * rng.uniform(-5.0, 5.0) for _ in range(4)]
        elif kind == "cell2":
            params = [f * rng.uniform(0.5, 5.0), f * rng.uniform(0.5, 5.0),
                      rng.uniform(20.0, 160.0)]
        elif kind == "ortho3":
            params = [f * rng.uniform(0.5, 5.0) for _ in range(3)]
        else:
            params = [f * rng.uniform(0.5, 5.0) for _ in range(3)] + [rng.uniform(20.0, 160.0)]
        lines.append(",".join([f"r{i}", kind, *map(repr, params)]))
    lines += ["sq,cell2,2,2,90", "hexa,cell2,1,1,120", "collinear,basis,1,0,2,0",
              "flat,cell2,1,1,1e-12", "big,basis,1e200,1e200,1e200,2e200"]
    path.write_text("\n".join(lines) + "\n")


class TestApiAgreement:
    def test_rows_equal_the_object_api(self, tmp_path, capsys):
        # the CLI runs on floats from record to row; the object wrappers must
        # give the same bytes, and skip the same records
        src, qt_out = tmp_path / "in.csv", tmp_path / "qt.csv"
        _mixed_record_file(src)
        code, forms, _ = run(capsys, "rootform", "-i", str(src), "--oriented", "--lenient")
        assert code == 0
        code, _, _ = run(capsys, "qt", "-i", str(src), "-o", str(qt_out), "--signed", "--lenient")
        assert code == 0
        want_forms, want_qt = ["id,r12,r01,r02,sign"], ["id,x,y"]
        for rec in parse_records(src.read_text()):
            try:
                orf, sign = oriented_root_form(project_to_2d(rec))
            except LatticeError:
                continue
            pt = to_quotient_triangle_oriented(orf, sign)
            want_forms.append(",".join([rec.id, *map(format_number, orf), sign.value]))
            want_qt.append(",".join([rec.id, format_number(pt.signed_x), format_number(pt.y)]))
        assert len(want_forms) >= 240
        assert forms.splitlines() == want_forms
        assert qt_out.read_text().splitlines() == want_qt


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up there
    spec.loader.exec_module(module)
    return module


class TestBenchmarkUsesThePublicApi:
    """perfbench calls the package by name; a name it uses that is gone would
    otherwise show only when the benchmark runs."""

    def test_query_client_answers_a_planted_duplicate(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "tracing", _load_perfbench("tracing"))
        query_loop = _load_perfbench("query_loop")  # it imports tracing by that name
        api = query_loop.package_api()
        b = random_basis(make_rng(41))
        x1, y1, x2, y2 = (float(c) for c in (*b.v1, *b.v2))
        prepared = query_loop.prepare(api, [(x1, y1, x2, y2)])
        # the same lattice in another basis
        orf, sign, rms, _, nearest, dist = query_loop.answer(
            api, prepared, (x1 + x2, y1 + y2, x2, y2)
        )
        want = oriented_root_form(Basis2(Vec2(x1, y1), Vec2(x2, y2)))
        assert orf == pytest.approx(tuple(want[0]), rel=1e-12) and sign == want[1].value
        assert nearest == 0 and rms[0][0] < query_loop.THRESHOLD
        assert dist is not None and dist < 1e-9

    def test_names_run_py_imports_from_the_package_exist(self):
        tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "rootforms"]
        assert len(imports) >= 4
        for node in imports:  # raises ImportError for a name that is gone
            exec(compile(ast.Module([node], type_ignores=[]), "run.py", "exec"), {})


class TestBenchmarkTrace:
    @pytest.mark.parametrize("command", ["rootform", "grid"])
    def test_traced_run_writes_the_same_bytes_and_counts_the_failure(
        self, tmp_path, capsys, command
    ):
        # perfbench --trace 1 runs main() in process with the cli names it
        # knows wrapped, and is correct only if the bytes and skips match
        from rootforms import cli

        src = tmp_path / "in.csv"
        src.write_text("good,basis,3,0,-1,3\nbad,basis,1,0,2,0\n")
        tracing = _load_perfbench("tracing")
        runs = []
        for tracer in (None, tracing.Tracer()):
            out = tmp_path / f"out{len(runs)}"
            argv = {
                "rootform": ["rootform", "-i", str(src), "-o", str(out), "--oriented"],
                "grid": ["grid", "-i", str(src), "-o", str(out), "--pgm", f"{out}.pgm",
                         "--mode", "qt"],
            }[command] + ["--lenient"]
            if tracer is None:
                code, stdout, stderr = run(capsys, *argv)
            else:
                with tracer.cli():
                    code, stdout, stderr = run(capsys, *argv)
            files = [p.read_bytes() for p in sorted(tmp_path.glob(f"{out.name}*"))]
            runs.append((code, stdout, stderr, files))
        assert runs[0] == runs[1]
        rows = runs[0][3][0].decode().splitlines()[1:]
        if command == "rootform":
            assert rows[0].startswith("good,")
        else:
            assert len(runs[0][3]) == 2  # CSV and PGM
            assert sum(int(c) for row in rows for c in row.split(",")) == 1
        assert "skipped record 'bad' (line 2)" in runs[0][2]
        assert sum(tracer.failed().values()) == 1
        assert any(span[0] == "cli.record_forms" for span in tracer.spans)
        assert cli._record_forms.__name__ == "_record_forms"  # unwrapped again


@pytest.fixture(scope="module")
def grid_corpus_lines():
    """The benchmark's grid_corpus(seed 1, 6000) as record lines."""
    return [item.line for item in _load_perfbench("corpus").grid_corpus(1, 6000)]


@pytest.fixture(scope="module")
def skewed_corpus_lines():
    """The rootform_skewed workload's corpus of seed 1 as record lines."""
    corpus = _load_perfbench("corpus")
    return [item.line for item in corpus.skewed_corpus(1, 800, (1, 900), 0.04, (100, 150))]


class TestPipelineMatchesTheReference:
    """Each CLI run on a benchmark corpus, with bad lines injected, writes the
    bytes and warnings of the same run through the parent's parser, kernel
    entry, QT shares, binning and emitters (tests/helpers.py)."""

    BAD = ["angle,cell2,1,1,180", "zero,ortho3,0,1,2", "collinear,basis,1,0,2,0",
           "nan,mono3,1,2,3,nan", "odd,wedge,1,2,3", "", "# comment", "short,basis,1,0,0",
           "flat,cell2,1,1,1e-12", ",basis,1,0,0,1", "huge,basis,1e200,1e200,1e200,2e200",
           "\x1fsep\x1f,\x1fmono3\x1f,\x1f6\x1f,9,8,\x1f105\x1f", "neg,mono3,1,2,3,-0"]
    COMMANDS = {
        "grid-qt": ["grid", "--mode", "qt", "--res", "1000", "--pgm", "{pgm}", "--lenient"],
        "grid-qt-strict": ["grid", "--mode", "qt", "--res", "1000"],
        "grid-rootpair": ["grid", "--mode", "rootpair", "--pgm", "{pgm}", "--lenient"],
        "rootform": ["rootform", "--lenient"],
        "rootform-oriented": ["rootform", "--oriented", "--lenient"],
        "qt-signed": ["qt", "--signed", "--lenient"],
    }

    def _runs(self, tmp_path, capsys, monkeypatch, lines, command):
        """(code, stdout, stderr, [-o, --pgm bytes]) of the package's run, then the reference's.

        The package's grid files must also be emit_grid's bytes of the grid it built."""
        import helpers
        from rootforms import records

        def write_grid(grid, fmt, out):
            emitted.append(emit_grid(grid, fmt))
            records_write_grid(grid, fmt, out)

        def reference_write_grid(grid, fmt, out):
            out.write(helpers.reference_emit_grid(grid, fmt))

        src = tmp_path / "in.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        runs, emitted = [], []
        for reference in (False, True):
            out, pgm = tmp_path / f"out{reference}", tmp_path / f"out{reference}.pgm"
            argv = [self.COMMANDS[command][0], "-i", str(src), "-o", str(out)]
            argv += [a.format(pgm=pgm) for a in self.COMMANDS[command][1:]]
            with monkeypatch.context() as m:
                if reference:
                    m.setattr(records, "parse_record_line", helpers.reference_parse_record_line)
                    m.setattr(cli, "_record_forms", helpers.reference_record_forms)
                    m.setattr("rootforms.projection.qt_coords", helpers.reference_qt_coords)
                    m.setattr(cli, "accumulate_grid", helpers.reference_accumulate_grid)
                    m.setattr(cli, "_write_grid", reference_write_grid)
                else:
                    m.setattr(cli, "_write_grid", write_grid)
                code, stdout, stderr = run(capsys, *argv)
            files = [p.read_bytes() if p.exists() else None for p in (out, pgm)]
            runs.append((code, stdout, stderr, files))
            if not reference and argv[0] == "grid":
                assert emitted == [f for f in files if f is not None]
        return runs

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bytes_and_warnings(self, tmp_path, capsys, monkeypatch, grid_corpus_lines, command):
        lines = list(grid_corpus_lines)
        for i, line in enumerate(self.BAD):
            lines.insert(450 * (i + 1), line)
        runs = self._runs(tmp_path, capsys, monkeypatch, lines, command)
        assert runs[0] == runs[1]
        code, _, stderr, files = runs[0]
        if command.endswith("strict"):
            assert code == 1 and files == [None, None]
            assert stderr.startswith("error: line 451: angle 180")
        else:
            assert code == 0 and stderr.count("warning: skipped") == 10
            rows = {"grid-qt": 1001, "grid-rootpair": 201}.get(command, 6002)  # 6001 records
            assert files[0].count(b"\n") == rows

    def test_skewed_bases(self, tmp_path, capsys, monkeypatch, skewed_corpus_lines):
        # rootform_skewed's sheared basis lines, some at scales up to 1e+-150
        lines = list(skewed_corpus_lines)
        for i, line in enumerate(self.BAD):
            lines.insert(60 * (i + 1), line)
        runs = self._runs(tmp_path, capsys, monkeypatch, lines, "rootform-oriented")
        assert runs[0] == runs[1]
        code, _, stderr, files = runs[0]
        assert code == 0 and stderr.count("warning: skipped") == 10
        assert files[0].count(b"\n") == 802  # the header and 801 records


def test_a_grid_record_costs_at_most_ten_python_calls():
    # a count of Python frames (calls and generator resumes), not a timing:
    # the record loop of grid --mode qt took 13.8 per record before its parse,
    # kernel entry and QT shares each lost one or two
    from rootforms.projection import qt_coords
    from rootforms.records import GridSpec, accumulate_grid, iter_records

    lines = [item.line + "\n" for item in _load_perfbench("corpus").grid_corpus(1, 600)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    rows = iter_records(lines, cli._record_forms, True)
    points = (qt_coords(*sorted(orf)) for _, orf, _ in rows)
    sys.setprofile(count)
    try:
        grid = accumulate_grid(points, GridSpec(0.0, 0.5, 0.0, 1.0 / 3.0, 1000))
    finally:
        sys.setprofile(None)
    assert sum(grid.counts.values()) == 600 and grid.overflow_count == 0
    assert calls <= 10 * 600, calls / 600
