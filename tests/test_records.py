"""Record parsing, 3D-to-2D projections, density grids and emitters."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from rootforms import (
    DegenerateBasis,
    DensityGrid,
    GridSpec,
    InvalidGridSpec,
    LatticeError,
    ParseError,
    accumulate_grid,
    emit_grid,
    parse_records,
    project_to_2d,
    root_form,
    reduce_to_obtuse,
    superbase_from_basis,
    to_quotient_triangle,
)
from rootforms.records import (KINDS, LatticeRecord, _write_grid, format_number, iter_records,
                               parse_record_line)

from helpers import (LINE_SEPARATORS, oracle_grid_bytes, reference_accumulate_grid,
                     reference_emit_grid, reference_parse_record_line)


class TestParsing:
    def test_basis_record(self):
        recs = parse_records("L1,basis,3,0,-1,3\n")
        assert recs == [LatticeRecord("L1", "basis", (3.0, 0.0, -1.0, 3.0), 1)]

    def test_cell2_record(self):
        recs = parse_records("L2,cell2,1,1,120\n")
        assert recs[0].kind == "cell2"
        assert recs[0].params == (1.0, 1.0, 120.0)

    def test_ortho3_record(self):
        recs = parse_records("L3,ortho3,5,7,12\n")
        assert recs[0].params == (5.0, 7.0, 12.0)

    def test_comments_blanks_and_line_numbers(self):
        text = "# heading\n\nA,basis,1,0,0,1  # trailing note\n\nB,ortho3,1,2,3\n"
        recs = parse_records(text)
        assert [r.id for r in recs] == ["A", "B"]
        assert [r.line for r in recs] == [3, 5]

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("X,basis,1,0,0", "4 parameters"),
            ("X,cell2,1,-2,90", "nonpositive length"),
            ("X,cell2,1,2,181", "angle"),
            ("X,cell2,1,2,0", "angle"),
            ("X,wedge,1,2,3", "unknown kind"),
            ("X,ortho3,a,2,3", "non-numeric"),
            ("X,ortho3,inf,2,3", "non-finite"),
            (",basis,1,0,0,1", "empty record id"),
            ("loner", "expected id,kind"),
        ],
    )
    def test_malformed_lines(self, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_records("ok,ortho3,1,2,3\n" + line + "\n")
        assert err.value.line == 2
        assert fragment in str(err.value)

    @pytest.mark.parametrize("sep", LINE_SEPARATORS, ids=ascii)
    def test_lines_end_only_at_newline(self, sep):
        # "\r\n" counts as one line ending; sep stays inside its line
        text = f"A,cell2,1,1,90\r\n\r\nr,k{sep}x\nB,ortho3,1,2,3\n"
        with pytest.raises(ParseError) as err:
            parse_records(text)
        assert (err.value.line, err.value.reason) == (3, f"unknown kind {f'k{sep}x'!r}")
        assert parse_records(text.replace("r,k", "# r,k")) == [
            LatticeRecord("A", "cell2", (1.0, 1.0, 90.0), 1),
            LatticeRecord("B", "ortho3", (1.0, 2.0, 3.0), 4),
        ]


class TestUndecodableBytes:
    """A reader that decodes with errors="surrogateescape" turns each byte that
    is not UTF-8 into a lone surrogate; an id that holds one is refused."""

    def test_parse_record_line_refuses_an_id_that_does_not_encode(self):
        with pytest.raises(ParseError) as err:
            parse_record_line("b\udcff,basis,1,0,0,1", 2)
        assert (err.value.line, err.value.reason) == (2, "record id is not valid UTF-8")

    def test_valid_non_ascii_ids_and_comments_parse(self):
        assert parse_record_line("é1,basis,1,0,0,1", 3).id == "é1"
        assert parse_record_line("# \udcff\udcfe", 4) is None
        assert parse_record_line("a,basis,1,0,0,1 # caf\udce9", 5).id == "a"

    def test_lenient_iter_records_skips_the_line(self, capsys):
        lines = ["a,cell2,1,1,90", "b\udcff,cell2,1,1,90", "c,cell2,1,1,90"]
        assert [r.id for r in iter_records(lines, lenient=True)] == ["a", "c"]
        assert capsys.readouterr().err == "warning: skipped line 2: record id is not valid UTF-8\n"


class TestIterRecords:
    LINES = ["# head", "a,cell2,1,1,90", "b,wedge,1", "", "c,ortho3,1,2,3", "d,cell2,2,2,90"]

    @staticmethod
    def _refuse_c(rec):
        if rec.id == "c":
            raise ValueError("refused")
        return rec.id

    def test_strict_raises_the_parse_error_unchanged(self):
        with pytest.raises(ParseError) as err:
            list(iter_records(self.LINES, self._refuse_c))
        assert (type(err.value), err.value.line) == (ParseError, 3)

    def test_strict_names_the_record_compute_refused(self):
        with pytest.raises(LatticeError, match=r"^record 'c' \(line 4\): refused$") as err:
            list(iter_records(self.LINES[:2] + self.LINES[3:], self._refuse_c))
        assert type(err.value) is LatticeError and isinstance(err.value.__cause__, ValueError)

    def test_lenient_warns_in_line_order_and_skips(self, capsys):
        assert list(iter_records(self.LINES, self._refuse_c, lenient=True)) == ["a", "d"]
        assert capsys.readouterr().err == (
            "warning: skipped line 3: unknown kind 'wedge'\n"
            "warning: skipped record 'c' (line 5): refused\n"
        )

    def test_without_compute_yields_numbered_records(self):
        recs = list(iter_records(self.LINES, lenient=True))
        assert [(r.id, r.line) for r in recs] == [("a", 2), ("c", 5), ("d", 6)]


# the whitespace a record line may carry around its fields: str.strip and
# float both skip these
SPACES = [" ", "\t", "\u00a0", "\u2003", " \t\u00a0\u2003 "]


class TestParseWhitespace:
    @pytest.mark.parametrize("w", SPACES, ids=["space", "tab", "nbsp", "em-space", "mixed"])
    def test_around_every_field(self, w):
        text = f"{w}A{w},{w}mono3{w},{w}6{w},{w}9{w},{w}8{w},{w}105{w}"
        assert parse_record_line(text, 4) == LatticeRecord("A", "mono3", (6.0, 9.0, 8.0, 105.0), 4)
        text = f"{w}B{w},{w}basis{w},{w}3{w},{w}-0{w},{w}-1e0{w},{w}3.{w}  # note"
        assert parse_record_line(text, 5) == LatticeRecord("B", "basis", (3.0, -0.0, -1.0, 3.0), 5)

    def test_internal_whitespace_of_an_id_is_kept(self):
        assert parse_record_line(" a b ,cell2,1,1,90", 1).id == "a b"

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separators_that_str_strip_drops_and_float_keeps(self, sep):
        # float refuses "\x1f3\x1f" where "3" after str.strip parses
        text = f"{sep}S{sep},{sep}cell2{sep},{sep}1{sep},2,{sep}90{sep}"
        assert parse_record_line(text, 2) == LatticeRecord("S", "cell2", (1.0, 2.0, 90.0), 2)

    @pytest.mark.parametrize("text", [
        "", " ", "\t", "   \t  ", "\u00a0\u2003", "#", "# only a comment", "  \t# indented",
        "#A,basis,1,0,0,1",
    ])
    def test_lines_without_a_record(self, text):
        assert parse_record_line(text, 3) is None

    @pytest.mark.parametrize("text, reason", [
        (" , ", "empty record id"),
        ("\t,basis,1,0,0,1", "empty record id"),
        ("\u00a0,basis,1,0,0,1", "empty record id"),
        ("X,ortho3, a ,2,3", "non-numeric parameter in ['a', '2', '3']"),
        ("X,ortho3,\t1\t, ,3", "non-numeric parameter in ['1', '', '3']"),
        ("X,cell2,1,2,9 0", "non-numeric parameter in ['1', '2', '9 0']"),
        ("X,ortho3,1,2,3,", "kind 'ortho3' takes 3 parameters, got 4"),
        ("X, basis ,1,0,0", "kind 'basis' takes 4 parameters, got 3"),
        ("X,cell2", "kind 'cell2' takes 3 parameters, got 0"),
        ("X, wedge ,1,2,3", "unknown kind 'wedge'"),
        ("X,Basis,1,0,0,1", "unknown kind 'Basis'"),
        ("X,,1,0,0,1", "unknown kind ''"),
        ("loner", "expected id,kind,params..."),
        ("X,ortho3,nan,2,3", "non-finite parameter"),
    ])
    def test_exact_messages(self, text, reason):
        with pytest.raises(ParseError) as err:
            parse_record_line(text, 9)
        assert (err.value.line, err.value.reason, str(err.value)) == (9, reason, f"line 9: {reason}")


class TestProjection:
    def test_ortho3_drops_longest_side(self):
        b = project_to_2d(LatticeRecord("x", "ortho3", (5.0, 7.0, 12.0)))
        assert (b.v1.x, b.v1.y) == (5.0, 0.0)
        assert (b.v2.x, b.v2.y) == (0.0, 7.0)
        rf = root_form(reduce_to_obtuse(superbase_from_basis(b)))
        assert rf == (0.0, 5.0, 7.0)

    def test_cell2_square_is_exact(self):
        b = project_to_2d(LatticeRecord("x", "cell2", (1.0, 1.0, 90.0)))
        assert (b.v2.x, b.v2.y) == (0.0, 1.0)
        pt = to_quotient_triangle(root_form(reduce_to_obtuse(superbase_from_basis(b))))
        assert (pt.x, pt.y) == (0.0, 0.0)

    def test_mono3_projects_along_unique_axis(self):
        b = project_to_2d(LatticeRecord("x", "mono3", (6.0, 9.0, 8.0, 105.0)))
        assert (b.v1.x, b.v1.y) == (6.0, 0.0)
        assert b.v2.x == pytest.approx(8 * math.cos(math.radians(105)), rel=1e-15)
        assert b.v2.y == pytest.approx(8 * math.sin(math.radians(105)), rel=1e-15)

    def test_basis_record_passthrough(self):
        b = project_to_2d(LatticeRecord("x", "basis", (3.0, 0.0, -1.0, 3.0)))
        assert (b.v2.x, b.v2.y) == (-1.0, 3.0)

    def test_degenerate_angle_rejected(self):
        # sin(1e-12 degrees) = 1.7e-14 is the determinant, below DEG_TOL
        with pytest.raises(DegenerateBasis):
            project_to_2d(LatticeRecord("x", "cell2", (1.0, 1.0, 1e-12)))

    def test_ortho3_tie_keeps_two(self):
        b = project_to_2d(LatticeRecord("x", "ortho3", (4.0, 4.0, 4.0)))
        assert (b.v1.x, b.v2.y) == (4.0, 4.0)


class TestGrid:
    def test_centre_point_of_2x2(self):
        grid = accumulate_grid([(0.5, 0.5)], GridSpec(0, 1, 0, 1, 2))
        assert grid.counts == {1: 1}  # ix 1, iy 1: raster row 0, column 1
        assert grid.overflow_count == 0

    def test_empty_points(self):
        grid = accumulate_grid([], GridSpec(0, 1, 0, 1, 3))
        assert sum(grid.counts.values()) == 0
        assert grid.overflow_count == 0

    def test_overflow(self):
        grid = accumulate_grid([(30.0, 10.0)], GridSpec(0, 25, 0, 25, 200))
        assert sum(grid.counts.values()) == 0
        assert grid.overflow_count == 1

    def test_upper_bound_lands_in_last_pixel(self):
        grid = accumulate_grid([(1.0, 1.0)], GridSpec(0, 1, 0, 1, 4))
        assert grid.counts == {3: 1}  # ix 3, iy 3: raster row 0, column 3

    def test_conservation_random(self):
        rng = np.random.default_rng(131)
        pts = rng.uniform(-0.2, 1.2, size=(500, 2))
        grid = accumulate_grid([tuple(p) for p in pts], GridSpec(0, 1, 0, 1, 7))
        assert sum(grid.counts.values()) + grid.overflow_count == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=0, x_max=0, y_min=0, y_max=1, resolution=2),
            dict(x_min=0, x_max=1, y_min=2, y_max=1, resolution=2),
            dict(x_min=0, x_max=1, y_min=0, y_max=1, resolution=0),
            dict(x_min=0, x_max=math.inf, y_min=0, y_max=1, resolution=2),
            dict(x_min=-1e308, x_max=1e308, y_min=0, y_max=1, resolution=2),
            dict(x_min=0, x_max=1, y_min=-1e308, y_max=1e308, resolution=2),
            dict(x_min=0, x_max=1, y_min=0, y_max=1, resolution=2.0),
            dict(x_min=0, x_max=1, y_min=0, y_max=1, resolution=True),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(InvalidGridSpec):
            GridSpec(**kwargs)


class TestEmit:
    def test_pgm_single_pixel(self):
        grid = DensityGrid(GridSpec(0, 1, 0, 1, 1), {0: 7}, 0)
        assert emit_grid(grid, "pgm") == b"P5\n1 1\n7\n\x07"

    def test_pgm_matches_max_count(self):
        counts = {2: 75, 3: 3, 1: 12}  # raster index (1 - iy) * 2 + ix
        data = emit_grid(DensityGrid(GridSpec(0, 1, 0, 1, 2), counts, 0), "pgm")
        assert data.startswith(b"P5\n2 2\n75\n")
        # top row = largest y bin: (ix 0, iy 1), (ix 1, iy 1), then y bin 0
        assert data.endswith(bytes([0, 12, 75, 3]))

    def test_pgm_sixteen_bit(self):
        counts = {0: 300}
        data = emit_grid(DensityGrid(GridSpec(0, 1, 0, 1, 1), counts, 0), "pgm")
        assert data == b"P5\n1 1\n300\n" + (300).to_bytes(2, "big")

    def test_pgm_scaled_sixteen_bit(self):
        # counts above 65535 scale to maxval 65535; 100000 -> 32767.5 rounds to even
        grid = DensityGrid(GridSpec(0, 1, 0, 1, 2), {2: 200000, 3: 1, 1: 100000}, 0)
        assert emit_grid(grid, "pgm") == b"P5\n2 2\n65535\n\x00\x00\x80\x00\xff\xff\x00\x00"

    def test_pgm_empty_grid_is_valid(self):
        data = emit_grid(DensityGrid(GridSpec(0, 1, 0, 1, 2), {}, 0), "pgm")
        assert data.startswith(b"P5\n2 2\n1\n")

    def test_csv_zero_grid(self):
        data = emit_grid(DensityGrid(GridSpec(0, 1, 0, 1, 2), {}, 0), "csv")
        assert data == b"0,1,0,1,2\n0,0\n0,0\n"

    def test_csv_row_orientation(self):
        counts = {2: 1, 0: 2, 3: 3, 1: 4}  # (ix, iy) = (0, 0), (0, 1), (1, 0), (1, 1)
        data = emit_grid(DensityGrid(GridSpec(0, 1, 0, 1, 2), counts, 0), "csv")
        assert data == b"0,1,0,1,2\n2,4\n1,3\n"

    @pytest.mark.parametrize("counts, bad", [
        ({-1: 5}, "-1 with count 5"),  # used to wrap to pixel 3 in both files
        ({-3: 12}, "-3 with count 12"),  # used to raise KeyError: 1 in the CSV
        ({0: 1, 4: 1}, "4 with count 1"),  # used to raise IndexError
        ({1: 2, 0: -3}, "0 with count -3"),  # used to write "-3" into the CSV
        ({1.0: 2}, "1.0 with count 2"),
        ({0: 1.5}, "0 with count 1.5"),
    ], ids=["negative-key", "negative-key-wide-count", "key-past-the-raster", "negative-count",
            "float-key", "float-count"])
    @pytest.mark.parametrize("fmt", ["csv", "pgm"])
    def test_keys_and_counts_outside_the_raster_raise_naming_the_key(self, fmt, counts, bad):
        grid = DensityGrid(GridSpec(0, 1, 0, 1, 2), counts, 0)
        with pytest.raises(ValueError) as info:
            emit_grid(grid, fmt)
        assert str(info.value) == (
            f"grid key {bad}: want an int key in [0, 4) and an int count >= 0")

    def test_unknown_format(self):
        grid = DensityGrid(GridSpec(0, 1, 0, 1, 1), {}, 0)
        with pytest.raises(ValueError):
            emit_grid(grid, "svg")

    def test_csv_memory_stays_near_the_output_size(self):
        # every count has two or more digits, so each is spliced into the body;
        # keeping a slice object per count would take about 20 MB here
        counts = {k: 10 + k % 990 for k in range(300 * 300)}
        grid = DensityGrid(GridSpec(0, 1, 0, 1, 300), counts, 0)
        tracemalloc.start()
        try:
            data = emit_grid(grid, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * len(data), (peak, len(data))
        cells = [int(c) for row in data.decode("ascii").splitlines()[1:] for c in row.split(",")]
        assert cells == [counts[k] for k in range(300 * 300)]

    @pytest.mark.parametrize("fmt, res, counts", [
        ("csv", 1000, {}),
        ("pgm", 1000, {}),
        ("pgm", 300, {k: 1 + k % 255 for k in range(300 * 300)}),  # 8-bit
        ("pgm", 300, {k: 256 + k for k in range(300 * 300)}),  # 16-bit
        ("csv", 1000, {0: 110, 999_999: 12, **{k: 1 + k % 9 for k in range(1, 999_999, 7)}}),
    ], ids=["csv-empty", "pgm-empty", "pgm-8-bit", "pgm-16-bit", "csv-few-wide"])
    def test_emit_memory_stays_near_the_output_size(self, fmt, res, counts):
        # the bytes go out in bands of rows, into one buffer that grows to the file
        grid = DensityGrid(GridSpec(0, 1, 0, 1, res), counts, 0)
        tracemalloc.start()
        try:
            data = emit_grid(grid, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * len(data), (peak, len(data))
        assert data == reference_emit_grid(grid, fmt)

    @pytest.mark.parametrize("fail_in", ["str", "lookup"])
    def test_a_failing_csv_emit_raises_its_own_error(self, fail_in, capsys):
        # the buffer's views are released on every path, so a failure inside
        # them surfaces as itself, not as a BufferError about exported views
        class Count(int):
            def __str__(self):
                raise MemoryError

        class Counts(dict):
            def __getitem__(self, k):  # the lookup a wide count's digits take
                raise MemoryError

        if fail_in == "str":
            counts = {4: Count(12), 5: 3}
        else:
            counts = Counts({4: 12, 5: 3})
        with pytest.raises(MemoryError):
            emit_grid(DensityGrid(GridSpec(0, 1, 0, 1, 3), counts, 0), "csv")
        assert capsys.readouterr() == ("", "")

    def test_number_formatting(self):
        assert format_number(1 / 3) == "0.333333333333"
        assert format_number(-0.0) == "0"
        assert format_number(25.0) == "25"


class TestEmitMatchesDenseOracle:
    """The occupied-pixel grid emits the bytes of the dense list-of-lists grid."""

    @staticmethod
    def check(points, spec):
        grid = accumulate_grid(points, spec)
        csv, pgm, overflow = oracle_grid_bytes(points, spec)
        assert grid.overflow_count == overflow
        assert sum(grid.counts.values()) + overflow == len(points)
        assert emit_grid(grid, "csv") == csv
        assert emit_grid(grid, "pgm") == pgm

    @pytest.mark.parametrize("res", [
        1, 2, 7, 50,
        pytest.param(np.int64(7), id="np.int64-7"),
        pytest.param(np.uint8(40), id="np.uint8-40"),  # 40 * 40 wraps in uint8
    ])
    @pytest.mark.parametrize("seed", [5, 808])
    def test_random_points(self, res, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec(-0.25, 2.0, 0.0, 1.0 / 3.0, res)
        n = int(rng.integers(0, 3 * int(res) ** 2 + 40))
        wide = rng.uniform((-0.5, -0.1), (2.25, 0.45), size=(n, 2))
        cluster = rng.normal((1.5, 0.3), (0.02, 0.01), size=(n, 2))  # high counts, upper edges
        edges = [(2.0, 1.0 / 3.0), (-0.25, 0.0), (2.0, 0.0), (-0.25, 1.0 / 3.0)]
        non_finite = [(math.nan, 0.1), (0.5, math.nan), (math.inf, 0.1), (0.5, -math.inf)]
        points = wide.tolist() + cluster.tolist() + edges + non_finite
        rng.shuffle(points)
        self.check(points, spec)

    @pytest.mark.parametrize("res", [1, 2, 7, 50])
    def test_empty_grids(self, res):
        self.check([], GridSpec(0.0, 1.0, 0.0, 1.0, res))
        self.check([(2.0, 0.5), (math.nan, math.nan), (-math.inf, math.inf)],
                   GridSpec(0.0, 1.0, 0.0, 1.0, res))

    @pytest.mark.parametrize("peak", [255, 256, 300, 65535, 65536, 70001, 131070])
    def test_pgm_depths(self, peak):
        # 8-bit up to a peak of 255, 16-bit up to 65535, scaled above it; at a
        # peak of 131070 the scale is exactly 1/2, so the counts 1, 3 and 5
        # are .5 ties that round to even: 0, 2 and 2
        points = [(0.3, 0.9)] * peak + [(0.5, 0.1)] + [(0.9, 0.5)] * 3 + [(0.1, 0.1)] * 5
        self.check(points + [(1.0, 1.0)] * 2, GridSpec(0.0, 1.0, 0.0, 1.0, 7))

    @pytest.mark.parametrize("count", [9, 10, 99, 100, 70000])  # 70000 scales a 16-bit PGM
    @pytest.mark.parametrize("corner", [(0, 1), (1, 1), (0, 0), (1, 0)],
                             ids=["first-row-first", "first-row-last", "last-row-first",
                                  "last-row-last"])
    def test_counts_at_the_corners(self, count, corner):
        # res 5, pixel centres at (i + 0.5) / 5; raster row 0 is the largest y
        res = 5
        ix, iy = corner[0] * (res - 1), corner[1] * (res - 1)
        nx = ix + 1 if ix == 0 else ix - 1  # a small count next to the corner, in its row
        x, y, xn = (ix + 0.5) / res, (iy + 0.5) / res, (nx + 0.5) / res
        points = [(x, y)] * count + [(xn, y)] * 3 + [(0.5, 0.5)]
        self.check(points, GridSpec(0.0, 1.0, 0.0, 1.0, res))

    @pytest.mark.parametrize("pixels", [(6, 7), (7, 8), (0, 1), (14, 15)],
                             ids=["ending-a-row", "across-rows", "first-two", "last-two"])
    def test_adjacent_wide_counts(self, pixels):
        # res 4: raster index k is row k // 4, so 6 and 7 end row 1 and 8 starts row 2
        res = 4
        points = []
        for k, count in zip(pixels, (12, 345)):
            row, ix = divmod(k, res)
            points += [((ix + 0.5) / res, (res - 1 - row + 0.5) / res)] * count
        grid = accumulate_grid(points, GridSpec(0.0, 1.0, 0.0, 1.0, res))
        assert grid.counts == dict(zip(pixels, (12, 345)))
        self.check(points, GridSpec(0.0, 1.0, 0.0, 1.0, res))

    @pytest.mark.parametrize("count", [0, 1, 9, 10, 123, 70000])
    def test_res_1(self, count):
        self.check([(0.5, 0.5)] * count, GridSpec(0.0, 1.0, 0.0, 1.0, 1))

    @pytest.mark.parametrize("counts", [(0, 0, 0, 0), (1, 0, 0, 9), (10, 9, 100, 1),
                                        (11, 12, 13, 14), (0, 99, 0, 100)])
    def test_res_2(self, counts):
        centres = [(0.25, 0.75), (0.75, 0.75), (0.25, 0.25), (0.75, 0.25)]  # raster order
        points = [p for p, c in zip(centres, counts) for _ in range(c)]
        grid = accumulate_grid(points, GridSpec(0.0, 1.0, 0.0, 1.0, 2))
        assert grid.counts == {k: c for k, c in enumerate(counts) if c}
        self.check(points, GridSpec(0.0, 1.0, 0.0, 1.0, 2))

    @pytest.mark.parametrize("seed", [3, 41])
    def test_dense_random_grid(self, seed):
        # most pixels occupied, with one- to three-digit counts side by side
        rng = np.random.default_rng(seed)
        points = rng.beta(2.0, 5.0, size=(30000, 2)).tolist()
        spec = GridSpec(0.0, 1.0, 0.0, 1.0, 40)
        counts = accumulate_grid(points, spec).counts.values()
        assert len(counts) > 1000 and min(counts) < 10 and max(counts) >= 100
        self.check(points, spec)

    def test_bin_storage_grows_with_occupied_pixels_not_res_squared(self):
        rng = np.random.default_rng(2000)
        points = rng.uniform(0.0, 1.0, size=(50, 2)).tolist()
        spec = GridSpec(0.0, 1.0, 0.0, 1.0, 2000)
        tracemalloc.start()
        try:
            grid = accumulate_grid(points, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak  # a dense 2000 x 2000 grid of lists is about 32 MB
        csv, pgm, overflow = oracle_grid_bytes(points, spec)
        assert grid.overflow_count == overflow
        assert emit_grid(grid, "csv") == csv
        assert emit_grid(grid, "pgm") == pgm


# Numbers at the edges of what a record accepts: both zeros, the extreme finite
# floats, the non-finite ones, and the angles 0 and 180 with one ulp inside each.
EDGE_NUMBERS = [
    "0", "-0", "0.0", "5e-324", "-5e-324", "1.7976931348623157e308", "-1.7976931348623157e308",
    "1e309", "inf", "-inf", "nan", "-nan", "Infinity", "180", "-180",
    repr(math.nextafter(180.0, 0.0)), repr(math.nextafter(0.0, 1.0)), "90", "120", "1e-300",
    "3.", ".5", "1_0", "0x1p3", "", "abc", "1 2", "+7",
]
FUZZ_SPACES = SPACES + ["\x1c", "\x1d", "\x1e", "\x1f", "\x1f \x1c", "\r"]


def _fuzzed_line(rng: random.Random) -> str:
    def pad(field):
        if rng.random() < 0.3:
            return rng.choice(FUZZ_SPACES) + field + rng.choice(FUZZ_SPACES + [""])
        return field

    roll = rng.random()
    if roll < 0.02:
        return rng.choice(["", "# a comment", "  # indented", rng.choice(FUZZ_SPACES), "loner",
                           "\x1floner\x1f # note"])
    if roll < 0.08:
        rec_id = rng.choice(["r", "a b", "é1", "", " ", "\x1f"])
    else:
        rec_id = f"r{rng.randrange(10**6)}"
    kind = rng.choice([*KINDS] * 8 + ["wedge", "Basis", "", "cell 2"])
    arity = KINDS.get(kind, 3) + (rng.choice([-1, 1, 2]) if rng.random() < 0.04 else 0)
    params = []
    for i in range(max(arity, 0)):
        angle = kind in ("cell2", "mono3") and i == arity - 1
        pick = rng.random()
        if pick < 0.12:
            params.append(rng.choice(EDGE_NUMBERS))
        elif angle:
            lo, hi = (-10.0, 190.0) if pick < 0.2 else (1.0, 179.0)
            params.append(repr(rng.uniform(lo, hi)))
        elif pick < 0.2:
            params.append(repr(-rng.uniform(0.0, 5.0)))
        else:
            params.append(repr(rng.uniform(0.0, 10.0) * 10.0 ** rng.choice([0, 0, 0, -200, 200])))
    text = ",".join(pad(f) for f in [rec_id, kind, *params])
    if rng.random() < 0.05:
        text += rng.choice(["#", " # note", "#,basis,1,0,0,1"])
    return text


def _outcome(parse, text, line):
    try:
        rec = parse(text, line)
    except ParseError as exc:
        return type(exc), exc.line, exc.reason
    return "ok", rec, type(rec)


class TestParseMatchesTheReference:
    """parse_record_line, one ordered check per line, gives exactly the
    reference parser's records, and its refusals by class, line and reason."""

    @pytest.mark.parametrize("seed", [19, 1919])
    def test_fuzzed_lines(self, seed):
        rng = random.Random(seed)
        kinds_seen, refusals = set(), 0
        for n in range(1, 12_001):
            text = _fuzzed_line(rng)
            got = _outcome(parse_record_line, text, n)
            assert got == _outcome(reference_parse_record_line, text, n), text
            if got[0] == "ok" and got[1] is not None:
                kinds_seen.add(got[1].kind)
            refusals += got[0] != "ok"
        assert kinds_seen == set(KINDS) and 1_000 < refusals < 8_000

    @pytest.mark.parametrize("kind, good", [
        ("basis", ["1", "0", "0", "1"]),
        ("cell2", ["1", "2", "90"]),
        ("ortho3", ["1", "2", "3"]),
        ("mono3", ["1", "2", "3", "90"]),
    ])
    def test_every_edge_number_in_every_field(self, kind, good):
        for i in range(len(good)):
            for number in EDGE_NUMBERS:
                for w in ("", "\x1f"):
                    fields = [*good[:i], w + number + w, *good[i + 1:]]
                    text = ",".join(["e", kind, *fields])
                    want = _outcome(reference_parse_record_line, text, 7)
                    assert _outcome(parse_record_line, text, 7) == want, text


class TestGridMatchesTheReference:
    """accumulate_grid and the band writer give exactly the parent's grids and
    bytes."""

    @staticmethod
    def check(points, spec):
        grid = accumulate_grid(points, spec)
        want = reference_accumulate_grid(points, spec)
        assert grid == want and list(grid.counts) == list(want.counts)
        for fmt in ("csv", "pgm"):
            assert emit_grid(grid, fmt) == reference_emit_grid(want, fmt)

    @pytest.mark.parametrize("res", [1, 2, 7, 300, 1000])
    @pytest.mark.parametrize("peak", [9, 99, 255, 65535, 70001], ids=[
        "narrow", "wide", "8-bit", "16-bit", "scaled"])
    def test_points(self, res, peak):
        rng = np.random.default_rng(res * 100_003 + peak)
        spec = GridSpec(-0.25, 2.0, 0.0, 1.0 / 3.0, res)
        spread = rng.uniform((-0.5, -0.1), (2.25, 0.45), size=(4000, 2)).tolist()
        cluster = rng.normal((1.5, 0.3), (0.05, 0.02), size=(3000, 2)).tolist()
        on_the_edges = [(2.0, 1.0 / 3.0), (2.0, 0.1), (0.7, 1.0 / 3.0), (-0.25, 0.0)] * 3
        outside = [(math.nan, 0.1), (0.5, math.nan), (math.inf, 0.1), (0.5, -math.inf),
                   (math.nextafter(2.0, 3.0), 0.1), (0.1, math.nextafter(1.0 / 3.0, 1.0))]
        points = spread + cluster + on_the_edges + outside + [(0.9, 0.2)] * peak
        rng.shuffle(points)
        self.check(points, spec)

    def test_every_pixel_wide(self):
        counts = {k: 10 + k % 990 for k in range(300 * 300)}
        grid = DensityGrid(GridSpec(0, 1, 0, 1, 300), counts, 0)
        for fmt in ("csv", "pgm"):
            assert emit_grid(grid, fmt) == reference_emit_grid(grid, fmt)

    @pytest.mark.parametrize("res", [1, 2, 33, 64, 100, 1000])
    @pytest.mark.parametrize("peak", [12, 255, 65535, 70001], ids=[
        "peak-12", "8-bit", "16-bit", "scaled"])
    def test_counts_at_every_row_edge(self, res, peak, tmp_path):
        # a band is whole rows, so counts at both ends of every row fill the
        # first and last row of each band and both sides of each boundary;
        # bands of 3 and 31 rows leave a shorter last band at res 100 and 1000
        counts = {}
        for row in range(res):
            counts[row * res] = peak - row % 3
            counts[row * res + res - 1] = 10 + row % 7 if row % 2 else 1 + row % 9
        grid = DensityGrid(GridSpec(0, 1, 0, 1, res), counts, 0)
        for fmt in ("csv", "pgm"):
            want = reference_emit_grid(grid, fmt)
            assert emit_grid(grid, fmt) == want
            with open(tmp_path / fmt, "w+b") as fh:  # the writer the CLI runs on its spool
                _write_grid(grid, fmt, fh)
            assert (tmp_path / fmt).read_bytes() == want

    @pytest.mark.parametrize("res", [1, 2, 7, 300])
    def test_wide_counts_in_every_row_and_column(self, res):
        # a wide count at each end of every row, and one-digit counts between
        counts = {}
        for row in range(res):
            counts[row * res] = 10 + row
            counts[row * res + res - 1] = 1000 + row
            counts[row * res + res // 2] = 1 + row % 9
        grid = DensityGrid(GridSpec(0, 1, 0, 1, res), counts, 0)
        for fmt in ("csv", "pgm"):
            assert emit_grid(grid, fmt) == reference_emit_grid(grid, fmt)
