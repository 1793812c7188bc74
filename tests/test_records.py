"""Record parsing, 3D-to-2D projections, density grids and emitters."""

import math
import tracemalloc

import numpy as np
import pytest

from rootforms import (
    DegenerateBasis,
    DensityGrid,
    GridSpec,
    InvalidGridSpec,
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
from rootforms.records import LatticeRecord, format_number, parse_record_line

from helpers import oracle_grid_bytes


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
        with pytest.raises(DegenerateBasis):
            project_to_2d(LatticeRecord("x", "cell2", (1.0, 1.0, 1e-10)))

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
        assert peak < 8 * len(data), (peak, len(data))
        cells = [int(c) for row in data.decode("ascii").splitlines()[1:] for c in row.split(",")]
        assert cells == [counts[k] for k in range(300 * 300)]

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
