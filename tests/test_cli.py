"""Command-line interface, exercised through main() and real files."""

import importlib.util
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rootforms import (
    LatticeError,
    oriented_root_form,
    parse_records,
    project_to_2d,
    to_quotient_triangle_oriented,
)
from rootforms.cli import main
from rootforms.records import format_number

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

    def test_basis_past_the_former_second_degeneracy_scale(self, tmp_path, capsys):
        # the square lattice (det -1, kappa about 8e11); entry accepted it, and
        # a second degeneracy test scaled by |v1 + v2| then rejected it
        src = tmp_path / "in.csv"
        src.write_text("sq,basis,848285,418337,49753,24536\n")
        code, out, err = run(capsys, "rootform", "-i", str(src), "--lenient")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["sq,0,1,1,neutral"]


# whitespace of every kind around ids, kinds and numbers, with every way a line
# can be skipped; \x1f is the one separator str.splitlines keeps in a line
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

    @pytest.mark.parametrize("rf, rf2, message", [
        ("-1,2,3", "0,0,5", "negative root product"),
        ("1,2,3", "0,0,5", "two root products vanish"),
        ("1,2,3", "2,-0.5,1", "negative root product"),
        ("0,1,0", "1,2,3", "two root products vanish"),
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

    def test_line_numbers_follow_str_splitlines(self, tmp_path, capsys):
        # iterating the file splits only at newlines; str.splitlines, whose
        # numbering the messages use, also splits at these
        seps = ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\n", "\r", "\n"]
        src = tmp_path / "in.csv"
        with open(src, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(f"r{i},k{i}{sep}" for i, sep in enumerate(seps)))
        code, _, err = run(capsys, "rootform", "-i", str(src), "--lenient")
        assert code == 0
        assert err.splitlines() == [
            f"warning: skipped line {i + 1}: unknown kind 'k{i}'" for i in range(len(seps))
        ]

    def test_grid_options_are_checked_before_the_input_is_read(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(RECORD_THEN_PARSE)
        code, _, err = run(capsys, *_file_command("grid", src, tmp_path / "out"), "--res", "0")
        assert code == 1
        assert err == "error: resolution must be a positive integer, got 0\n"

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


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        tracing = _load_tracing()
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
