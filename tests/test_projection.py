"""Triangle coordinates and superbase reconstruction."""

import math

import pytest

from helpers import ULP, make_rng, random_root_form
from rootforms import (
    Basis2,
    DegenerateLattice,
    GridSpec,
    LatticeError,
    LatticeSign,
    ObtuseSuperbase,
    RootForm,
    Vec2,
    accumulate_grid,
    oriented_root_form,
    reconstruct_superbase,
    root_form,
    root_form_from_values,
    superbase_distance_linf,
    superbase_from_basis,
    reduce_to_obtuse,
    to_full_triangle,
    to_quotient_triangle,
    to_quotient_triangle_oriented,
)
from rootforms.lattice import OrientedRootForm
from rootforms.projection import qt_coords


class TestFullTriangle:
    @pytest.mark.parametrize("a", [1.0, 0.37, 250.0])
    def test_square_family(self, a):
        assert to_full_triangle(RootForm(0.0, a, a)) == (0.0, 0.5, 0.5)

    def test_hexagonal_family(self):
        c = 0.9
        assert to_full_triangle(RootForm(c, c, c)) == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-15
        )

    def test_simple_normalisation(self):
        assert to_full_triangle(RootForm(1, 2, 3)) == pytest.approx(
            (1 / 6, 1 / 3, 1 / 2), abs=1e-15
        )

    def test_zero_sum_rejected(self):
        with pytest.raises(DegenerateLattice):
            to_full_triangle(RootForm(0.0, 0.0, 0.0))


class TestOverflowingEntrySum:
    # the entries are finite but their sum is not; scaling by 2^-4 is exact,
    # so the shares of the scaled triple are the bits the overflowing one must give
    BIG = (1e308, 1.5e308, 1.7e308)
    SCALED = tuple(math.ldexp(v, -4) for v in BIG)

    def test_the_sum_overflows(self):
        assert sum(self.BIG) == math.inf and sum(self.SCALED) < math.inf

    def test_qt_coords(self):
        got = qt_coords(*self.BIG)
        assert got == qt_coords(*self.SCALED)
        assert got[0] > 0.0 and got[1] > 0.0

    def test_full_triangle(self):
        got = to_full_triangle(RootForm(*self.BIG))
        assert got == to_full_triangle(RootForm(*self.SCALED))
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-15)

    def test_quotient_triangle_points(self):
        assert to_quotient_triangle(RootForm(*self.BIG)) == to_quotient_triangle(
            RootForm(*self.SCALED))


class TestNonFiniteEntries:
    @pytest.mark.parametrize("project, triple", [
        (qt_coords, (1.0, 2.0, math.inf)),
        (qt_coords, (1.0, 2.0, math.nan)),
        (lambda *rf: to_full_triangle(RootForm(*rf)), (1.0, 2.0, math.inf)),
    ], ids=["qt_coords_inf", "qt_coords_nan", "to_full_triangle_inf"])
    def test_raise_instead_of_returning_nan(self, project, triple):
        with pytest.raises(ValueError, match=r"^non-finite root product in \(1\.0, 2\.0, "):
            project(*triple)


class TestQuotientTriangle:
    def test_square_corner(self):
        pt = to_quotient_triangle(RootForm(0.0, 2.0, 2.0))
        assert (pt.x, pt.y) == (0.0, 0.0)

    def test_zero_sum_rejected(self):
        with pytest.raises(DegenerateLattice, match="root products sum to zero"):
            to_quotient_triangle(RootForm(0.0, 0.0, 0.0))

    def test_hexagonal_apex(self):
        c = 1 / math.sqrt(2)
        pt = to_quotient_triangle(RootForm(c, c, c))
        assert pt.x == pytest.approx(0.0, abs=1e-15)
        assert pt.y == pytest.approx(1 / 3, abs=1e-15)

    def test_long_rectangle_approaches_right_vertex(self):
        xs = [to_quotient_triangle(RootForm(0.0, 1.0, b)).x for b in (10, 100, 1e6)]
        assert all(x < 0.5 for x in xs)
        assert xs == sorted(xs)
        assert xs[-1] == pytest.approx(0.5, abs=1e-5)
        assert to_quotient_triangle(RootForm(0.0, 1.0, 1e6)).y == 0.0

    def test_signed_variant(self):
        orf = OrientedRootForm(0.5, 1.5, 1.0)  # descending pair: mirror image
        pt = to_quotient_triangle_oriented(orf, LatticeSign.NEGATIVE)
        assert pt.signed_x == -pt.x < 0.0
        pos = to_quotient_triangle_oriented(
            OrientedRootForm(0.5, 1.0, 1.5), LatticeSign.POSITIVE
        )
        assert pos.signed_x == pos.x == pt.x

    def test_range_random(self):
        rng = make_rng(83)
        for _ in range(300):
            pt = to_quotient_triangle(random_root_form(rng, lo=0.0, hi=5.0))
            assert 0.0 <= pt.x <= 0.5
            assert 0.0 <= pt.y <= 1 / 3 + 1e-15

    def test_scale_invariance(self):
        rng = make_rng(89)
        for _ in range(100):
            rf = random_root_form(rng)
            s = 10.0 ** rng.uniform(-3, 3)
            a = to_quotient_triangle(rf)
            b = to_quotient_triangle(RootForm(rf.r12 * s, rf.r01 * s, rf.r02 * s))
            assert abs(a.x - b.x) <= 1e-14
            assert abs(a.y - b.y) <= 1e-14

    def test_hexagonal_bases_bin_inside_default_grid(self):
        # rounding used to leave y = b12 one ulp above 1/3 for some hexagonal
        # lattices, and the default qt grid then counted them as overflow
        rng = make_rng(113)
        points = []
        for _ in range(2000):
            a = 10.0 ** rng.uniform(-100.0, 100.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            b = Basis2(
                Vec2(a, 0.0).rotated(ang),
                Vec2(-a / 2.0, a * math.sqrt(3.0) / 2.0).rotated(ang),
            )
            pt = to_quotient_triangle_oriented(*oriented_root_form(b))
            points.append((pt.x, pt.y))
        grid = accumulate_grid(points, GridSpec(0.0, 0.5, 0.0, 1.0 / 3.0, 200))
        assert grid.overflow_count == 0
        assert max(y for _, y in points) == 1.0 / 3.0

    def test_only_equal_products_reach_max_height(self):
        assert to_quotient_triangle(RootForm(1.0, 1.0, 1.0)).y == pytest.approx(
            1 / 3, abs=1e-15
        )
        rng = make_rng(97)
        for _ in range(200):
            rf = random_root_form(rng)
            if rf.r02 - rf.r12 > 1e-6 * rf.r02:
                assert to_quotient_triangle(rf).y < 1 / 3 - 1e-8


class TestReconstruction:
    def test_square(self):
        s = reconstruct_superbase(RootForm(0.0, 1.0, 1.0))
        assert (s.v1.x, s.v1.y) == (1.0, 0.0)
        assert (s.v2.x, s.v2.y) == (0.0, 1.0)
        assert (s.v0.x, s.v0.y) == (-1.0, -1.0)

    def test_hexagonal(self):
        c = 1 / math.sqrt(2)
        s = reconstruct_superbase(RootForm(c, c, c))
        assert s.v1.norm() == pytest.approx(1.0, rel=1e-15)
        assert s.v2.norm() == pytest.approx(1.0, rel=1e-15)
        angle = math.acos(s.v1.dot(s.v2) / (s.v1.norm() * s.v2.norm()))
        assert math.degrees(angle) == pytest.approx(120.0, rel=1e-12)
        assert s.v2.x == pytest.approx(-0.5, rel=1e-12)
        assert s.v2.y == pytest.approx(math.sqrt(3) / 2, rel=1e-12)

    def test_skew_example_matches_reference_superbase(self):
        rf = RootForm(math.sqrt(3), math.sqrt(6), math.sqrt(7))
        s = reconstruct_superbase(rf)
        assert root_form(s) == pytest.approx(tuple(rf), rel=1e-12)
        ref = reduce_to_obtuse(
            superbase_from_basis(Basis2(Vec2(3, 0), Vec2(-1, 3)))
        )
        assert superbase_distance_linf(s, ref) < 1e-8

    def test_negative_sign_mirrors(self):
        rf = RootForm(0.6, 1.0, 1.4)
        pos = reconstruct_superbase(rf, LatticeSign.POSITIVE)
        neg = reconstruct_superbase(rf, LatticeSign.NEGATIVE)
        assert pos.det > 0.0 > neg.det
        orf_p, sign_p = oriented_root_form(Basis2(pos.v1, pos.v2))
        orf_n, sign_n = oriented_root_form(Basis2(neg.v1, neg.v2))
        assert sign_p is LatticeSign.POSITIVE
        assert sign_n is LatticeSign.NEGATIVE
        assert orf_n == pytest.approx((orf_p.first, orf_p.third, orf_p.second), rel=1e-12)

    def test_round_trip_random(self):
        rng = make_rng(101)
        for _ in range(300):
            rf = random_root_form(rng, lo=0.05, hi=4.0)
            back = root_form(reconstruct_superbase(rf))
            assert back == pytest.approx(tuple(rf), rel=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLattice):
            reconstruct_superbase(RootForm(0.0, 0.0, 1.0))

    def test_thin_rectangle_round_trips(self):
        # conorms (0, 1e-10, 1): one vanishes, the second is small but positive
        rf = root_form_from_values(0.0, 1e-5, 1.0)
        assert root_form(reconstruct_superbase(rf)) == rf

    @pytest.mark.parametrize("shape", [
        (0.0, 4.0, 4.0), (0.6, 1.0, 1.4), (1.0, 1.0, 1.0), (0.01, 1.0, 1.005),
        (math.sqrt(3), math.sqrt(6), math.sqrt(7)),
    ])
    def test_tiny_scales_round_trip_or_raise_a_lattice_error(self, shape):
        # below about 1e-154, |v1| |v2| underflowed to 0 in the angle's cosine
        # and a ZeroDivisionError escaped every handler of the package's errors
        for e in range(150, 301):
            rf = RootForm(*(r * 10.0 ** -e for r in shape))
            try:
                sb = reconstruct_superbase(rf)
            except LatticeError:
                continue
            # scaling by 2^k is exact and brings the squared products back
            # into range, so the round-trip bound applies as at unit scale
            k = -math.frexp(max(rf))[1]
            unit = ObtuseSuperbase(
                *(Vec2(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in (sb.v0, sb.v1, sb.v2))
            )
            want = [math.ldexp(r, k) for r in rf]
            slack = 16.0 * ULP * max(want) ** 2
            for got, w in zip(root_form(unit), want):
                assert abs(got * got - w * w) <= slack, (e, shape)
