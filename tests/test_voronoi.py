"""Brute-force Voronoi oracle: vectors, domains, superbase cross-checks."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from helpers import (
    apply_unimodular,
    exact_obtuse_superbase,
    make_rng,
    random_basis,
    random_unimodular,
    reference_voronoi_vectors,
    rotated_basis,
)
from rootforms import (
    Basis2,
    Superbase2,
    Vec2,
    reduce_to_obtuse,
    superbase_from_basis,
    verify_partial_sums,
    voronoi_domain,
    voronoi_vectors,
)
from rootforms.errors import DegenerateBasis
from rootforms.records import parse_record_line, project_to_2d
from rootforms.voronoi import TIE_TOL

SQUARE = Basis2(Vec2(1, 0), Vec2(0, 1))
HEX = Basis2(Vec2(1, 0), Vec2(-0.5, math.sqrt(3) / 2))


def near_rectangular_basis(rng):
    """Sides at 90 degrees to within 1e-10 rad, turned at random: for most, the
    class of v1 +- v2 is non-strict and the cell has 4 vertices."""
    a, b = rng.uniform(0.5, 2.0, size=2)
    angle = math.pi / 2 + rng.uniform(-1e-10, 1e-10)
    v1, v2 = Vec2(a, 0.0), Vec2(b * math.cos(angle), b * math.sin(angle))
    return rotated_basis(Basis2(*((v1, v2) if rng.random() < 0.5 else (v2, v1))),
                         rng.uniform(0.0, 2.0 * math.pi))


def thin_basis(rng):
    """Sides of ratio up to 1e4 at a random angle, turned at random."""
    a, aspect, angle = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(0.0, 4.0), rng.uniform(0.3, 2.8)
    v1, v2 = Vec2(a, 0.0), Vec2(a * aspect * math.cos(angle), a * aspect * math.sin(angle))
    return rotated_basis(Basis2(*((v1, v2) if rng.random() < 0.5 else (v2, v1))),
                         rng.uniform(0.0, 2.0 * math.pi))


def orientation_bases(rng, count):
    """count random, near-rectangular and thin bases each: the orientation tests' inputs."""
    return [make(rng) for make in (random_basis, near_rectangular_basis, thin_basis)
            for _ in range(count)]


def rounded_vectors(vvs, strict):
    return {(round(v.vector.x, 9), round(v.vector.y, 9)) for v in vvs if v.strict == strict}


class TestVoronoiVectors:
    def test_square_lattice(self):
        vvs = voronoi_vectors(SQUARE)
        assert rounded_vectors(vvs, strict=True) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert rounded_vectors(vvs, strict=False) == {(1, 1), (-1, -1), (1, -1), (-1, 1)}

    def test_hexagonal_lattice(self):
        vvs = voronoi_vectors(HEX)
        assert all(v.strict for v in vvs)
        assert len(vvs) == 6
        assert all(v.vector.norm() == pytest.approx(1.0, rel=1e-12) for v in vvs)

    def test_skew_lattice(self):
        vvs = voronoi_vectors(Basis2(Vec2(3, 0), Vec2(-1, 3)))
        assert rounded_vectors(vvs, strict=True) == {
            (3, 0), (-3, 0), (-1, 3), (1, -3), (2, 3), (-2, -3),
        }

    def test_coefficients_refer_to_input_basis(self):
        rng = make_rng(103)
        for _ in range(50):
            b = apply_unimodular(random_basis(rng), random_unimodular(rng, shears=5))
            for v in voronoi_vectors(b):
                c1, c2 = v.coeffs
                rebuilt = Vec2(
                    c1 * b.v1.x + c2 * b.v2.x, c1 * b.v1.y + c2 * b.v2.y
                )
                assert (rebuilt - v.vector).norm() <= 1e-9 * max(1.0, v.vector.norm())


def _rotated_pair(angle, x2, y2, scale=1.0):
    """Basis ((1, 0), (x2, y2)) rotated by angle, times scale."""
    c, s = math.cos(angle), math.sin(angle)
    return Basis2(Vec2(scale * c, scale * s),
                  Vec2(scale * (c * x2 - s * y2), scale * (s * x2 + c * y2)))


def _search_bases(family, rng):
    for _ in range(60):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        if family == "random":
            yield apply_unimodular(random_basis(rng), random_unimodular(rng))
        elif family == "thin":
            aspect = 10.0 ** rng.uniform(0.0, 3.0)
            b = _rotated_pair(angle, rng.uniform(-0.5, 0.5), aspect)
            yield apply_unimodular(b, random_unimodular(rng, shears=2, kmax=2))
        elif family == "near_rectangular":
            eps = 10.0 ** rng.uniform(-14.0, -2.0) * rng.choice([-1.0, 1.0])
            yield _rotated_pair(angle, eps, rng.uniform(0.5, 2.0))
        else:  # near hexagonal
            t = 2.0 * math.pi / 3.0 + 10.0 ** rng.uniform(-14.0, -2.0) * rng.choice([-1.0, 1.0])
            b = _rotated_pair(angle, math.cos(t), math.sin(t))
            yield apply_unimodular(b, random_unimodular(rng, shears=3))


class TestPerClassSearch:
    @pytest.mark.parametrize("family", ["random", "thin", "near_rectangular", "hexagonal"])
    def test_equals_the_full_enumeration(self, family):
        # each class's own ball, sized from a member the reduced basis gives,
        # finds exactly the members, ties and strictness the big ball did
        rng = make_rng(9100 + sum(map(ord, family)))
        for b in _search_bases(family, rng):
            assert voronoi_vectors(b) == reference_voronoi_vectors(b), b

    def test_thin_lattice_search_stays_small(self):
        # the full enumeration held O(aspect) vectors here (over 100 MiB at 1e-4);
        # the tie band once scaled with the longest vector (1,792 vectors at 1e-7)
        for a in (1e-4, 1e-7, 1e-11, 1.01e-12):
            tracemalloc.start()
            try:
                vvs = voronoi_vectors(Basis2(Vec2(a, 0.0), Vec2(0.0, 1.0)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20
            assert {(v.vector.x, v.vector.y) for v in vvs if v.strict} == {
                (a, 0.0), (-a, 0.0), (0.0, 1.0), (0.0, -1.0)}
            assert len(vvs) == 8


def _exact_classes(b):
    """(v, strict) for each class of b's exact obtuse superbase (v0, v1, v2),
    as Fraction pairs, under the tie rule: the class of v_k is strict iff the
    conorm p of the other two gives an excess 4 p above TIE_TOL times the
    shortest vonorm."""
    v0, v1, v2 = exact_obtuse_superbase(b)
    vonorm = min(x * x + y * y for x, y in (v0, v1, v2))
    return [(v, -4 * (p[0] * q[0] + p[1] * q[1]) > Fraction(TIE_TOL) * vonorm)
            for v, (p, q) in ((v0, (v1, v2)), (v1, (v2, v0)), (v2, (v0, v1)))]


def _exact_strict_flags(b):
    """Sorted strict flags of b's Voronoi vectors: 2 per strict class, 4 per
    non-strict one."""
    return sorted(f for _, strict in _exact_classes(b) for f in [strict] * (2 if strict else 4))


def _exact_cell(b):
    """Vertices of b's Voronoi cell as Fraction pairs, counterclockwise: the
    circumcentres of the origin and angular neighbours among the strict
    vectors of the exact obtuse superbase."""
    vs = [w for v, strict in _exact_classes(b) if strict for w in (v, (-v[0], -v[1]))]
    vs.sort(key=lambda v: math.atan2(v[1], v[0]))
    cell = []
    for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
        a2, b2, d = ax * ax + ay * ay, bx * bx + by * by, 2 * (ax * by - ay * bx)
        cell.append(((a2 * by - b2 * ay) / d, (b2 * ax - a2 * bx) / d))
    return cell


def _thin_family(seed, count, near_right=False):
    """Bases with sides of ratio 1e3 to 1e12 at a random angle, or at 90 degrees
    +- 10^U(-14, -2) rad when near_right, turned at random, that Basis2 accepts
    (|det| > DEG_TOL max|v|^2 caps the ratio near 1e12)."""
    rng = make_rng(seed)
    for _ in range(count):
        a, aspect = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(3.0, 12.0)
        angle, turn = rng.uniform(0.3, 2.8), rng.uniform(0.0, 2.0 * math.pi)
        if near_right:
            angle = math.pi / 2 + 10.0 ** rng.uniform(-14.0, -2.0) * rng.choice([-1.0, 1.0])
        v1, v2 = Vec2(a, 0.0), Vec2(a * aspect * math.cos(angle), a * aspect * math.sin(angle))
        try:
            yield rotated_basis(Basis2(*((v1, v2) if rng.random() < 0.5 else (v2, v1))), turn)
        except DegenerateBasis:
            continue


def _integer_rectangles(seed):
    """(1, 0), (0, N) for N = 2^0 .. 2^24 and seeded N below 2^24, each also with
    its second vector sheared by a seeded multiple of the first."""
    rng = make_rng(seed)
    sizes = [2 ** k for k in range(25)] + [int(n) for n in rng.integers(2, 2 ** 24, 40)]
    for n in sizes:
        yield Basis2(Vec2(1.0, 0.0), Vec2(0.0, float(n)))
        yield Basis2(Vec2(1.0, 0.0), Vec2(float(rng.integers(-1000, 1001)), float(n)))


class TestThinLattices:
    """One scale, the shortest vector's squared length, for the search and the
    ties: at most 8 vectors at any aspect ratio that Basis2 accepts."""

    def _assert_oracle(self, b, flags):
        tracemalloc.start()
        try:
            vvs = voronoi_vectors(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, b
        assert sorted(v.strict for v in vvs) == flags, b
        assert verify_partial_sums(reduce_to_obtuse(superbase_from_basis(b))), b

    def test_seeded_thin_family_to_aspect_1e12(self):
        bases = list(_thin_family(9500, 300))
        assert len(bases) >= 250
        assert max(b.v1.norm() / b.v2.norm() + b.v2.norm() / b.v1.norm() for b in bases) > 1e11
        for b in bases:
            self._assert_oracle(b, _exact_strict_flags(b))

    def test_integer_rectangles_have_exact_ties(self):
        # squared lengths are exact integers: the class of u1 +- u2 is an exact
        # tie, so 4 strict and 4 non-strict vectors whatever N
        for b in _integer_rectangles(9501):
            self._assert_oracle(b, [False] * 4 + [True] * 4)


class TestVoronoiDomain:
    def test_square_cell(self):
        poly = voronoi_domain(SQUARE)
        verts = {(round(p.x, 12), round(p.y, 12)) for p in poly.vertices}
        assert verts == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_rectangular_cell(self):
        poly = voronoi_domain(Basis2(Vec2(1, 0), Vec2(0, 2)))
        verts = {(round(p.x, 12), round(p.y, 12)) for p in poly.vertices}
        assert verts == {(0.5, 1.0), (-0.5, 1.0), (-0.5, -1.0), (0.5, -1.0)}

    def test_hexagonal_cell(self):
        poly = voronoi_domain(HEX)
        assert len(poly.vertices) == 6
        circumradius = 1.0 / math.sqrt(3.0)
        for p in poly.vertices:
            assert p.norm() == pytest.approx(circumradius, rel=1e-9)
        assert poly.area() == pytest.approx(abs(HEX.det), rel=1e-12)

    def test_area_equals_cell_volume_random(self):
        # a clockwise cell has area -|det|
        for b in orientation_bases(make_rng(107), 100):
            assert voronoi_domain(b).area() == pytest.approx(abs(b.det), rel=1e-9)

    def test_central_symmetry_random(self):
        rng = make_rng(109)
        for _ in range(50):
            b = random_basis(rng)
            poly = voronoi_domain(b)
            scale = max(p.norm() for p in poly.vertices)
            verts = list(poly.vertices)
            for p in verts:
                assert any((q + p).norm() <= 1e-12 * scale for q in verts)

    def test_vertex_counts(self):
        rng = make_rng(113)
        generic = 0
        for _ in range(50):
            b = random_basis(rng)
            n = len(voronoi_domain(b).vertices)
            assert n in (4, 6)
            generic += n == 6
        assert generic >= 45  # random lattices are almost surely strict
        assert len(voronoi_domain(Basis2(Vec2(1, 0), Vec2(0, 1.7))).vertices) == 4

    def test_counterclockwise_order(self):
        merged = 0
        for b in (SQUARE, HEX, Basis2(Vec2(3, 0), Vec2(-1, 3)), *orientation_bases(make_rng(131), 50)):
            pts = voronoi_domain(b).vertices
            merged += len(pts) == 4
            # every turn is to the left, not only the sum of them
            for p, q, r in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
                assert (q - p).cross(r - q) > 0.0
        assert merged >= 50  # the square and every near-rectangular cell


class TestVerifyPartialSums:
    def test_hexagonal_true(self):
        assert verify_partial_sums(reduce_to_obtuse(superbase_from_basis(HEX)))

    def test_square_true_with_nonstrict(self):
        obt = reduce_to_obtuse(superbase_from_basis(SQUARE))
        assert verify_partial_sums(obt)
        vvs = voronoi_vectors(SQUARE)
        assert any(not v.strict for v in vvs)

    def test_non_obtuse_fails(self):
        s = Superbase2(Vec2(-2, -1), Vec2(1, 0), Vec2(1, 1))
        assert not verify_partial_sums(s)

    def test_reduced_random_bases_pass(self):
        rng = make_rng(127)
        for _ in range(100):
            b = apply_unimodular(random_basis(rng), random_unimodular(rng))
            assert verify_partial_sums(reduce_to_obtuse(superbase_from_basis(b)))

    def test_a_basis_whose_squares_underflow_passes(self):
        # (1e-163)^2 underflows to zero: the search runs on the basis scaled
        # by a power of two, where no square does
        assert verify_partial_sums(superbase_from_basis(Basis2(Vec2(1e-163, 0), Vec2(0, 1e-155))))

    def test_an_unchecked_degenerate_superbase_raises(self):
        s = tuple.__new__(Superbase2, (Vec2(-3.0, 0.0), Vec2(1.0, 0.0), Vec2(2.0, 0.0)))
        with pytest.raises(DegenerateBasis):
            verify_partial_sums(s)


def _near_rectangular_superbases(seed, per_scale):
    """Kernel-reduced superbases of rectangles sheared by +-10^U(-13, -6),
    at scales 1e-150, 1 and 1e150."""
    rng = make_rng(seed)
    for scale in (1e-150, 1.0, 1e150):
        for _ in range(per_scale):
            eps = 10.0 ** float(rng.uniform(-13.0, -6.0)) * float(rng.choice([-1.0, 1.0]))
            angle, y2 = float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.5, 2.0))
            b = _rotated_pair(angle, eps, y2, scale)
            yield reduce_to_obtuse(superbase_from_basis(b))


class TestOneTieRule:
    """The oracle judges strictness by voronoi_vectors' own rule: the class of
    v_k is strict iff the squared length of its partner v_i - v_j exceeds
    |v_k|^2 by more than TIE_TOL times the shortest vonorm. Every
    kernel-reduced superbase passes, also where the shear puts the partner
    near that band."""

    @pytest.mark.parametrize("a,b", [("1", "1"), ("3.2", "5.1"), ("10", "10.5")])
    @pytest.mark.parametrize("gamma", ["90.00000002", "90.00000004", "90.00000006"])
    def test_near_right_cells_pass(self, a, b, gamma):
        rec = parse_record_line(f"p,cell2,{a},{b},{gamma}", 1)
        assert verify_partial_sums(reduce_to_obtuse(superbase_from_basis(project_to_2d(rec))))

    def test_near_rectangular_family_passes(self):
        failed = [s for s in _near_rectangular_superbases(9300, 300) if not verify_partial_sums(s)]
        assert failed == []

    def test_strict_flags_are_the_rule_on_two_lengths(self):
        for s in _near_rectangular_superbases(9301, 100):
            vvs = voronoi_vectors(Basis2(s.v1, s.v2))
            tol = 1e-9 * max(v.norm() for v in s.vectors())
            band = TIE_TOL * min(v.norm_sq() for v in s.vectors())

            def near(v, u):
                return min((v.vector - u).norm(), (v.vector + u).norm()) <= tol

            for target, partner in ((s.v0, s.v1 - s.v2), (s.v1, s.v2 - s.v0), (s.v2, s.v0 - s.v1)):
                strict = partner.norm_sq() - target.norm_sq() > band
                members = [v for v in vvs if near(v, target) or near(v, partner)]
                assert len(members) == (2 if strict else 4), s
                assert all(v.strict == strict for v in members), s


def _bits(poly):
    return [(p.x.hex(), p.y.hex()) for p in poly]


def _exact_det(b):
    return abs(Fraction(b.v1.x) * Fraction(b.v2.y) - Fraction(b.v1.y) * Fraction(b.v2.x))


# Basis2 accepts it, and its cell's vertices and doubled area are near the float maximum
HUGE = Basis2(Vec2(1.3e154, 0.0), Vec2(-6.5e153, 1.1258e154))


class TestClosedFormCell:
    """Each vertex is where the bisectors of two angular neighbours among the
    strict Voronoi vectors cross: 4 or 6 vertices at any aspect ratio, each
    near the exact cell's."""

    @staticmethod
    def _off(p, q):
        return math.hypot(float(Fraction(p.x) - q[0]), float(Fraction(p.y) - q[1]))

    def test_thin_family_to_aspect_1e12(self):
        bases = [*_thin_family(9700, 150), *_thin_family(9701, 150, near_right=True),
                 *_integer_rectangles(9702)]
        assert len(bases) >= 350
        fours = 0
        for b in bases:
            vvs = voronoi_vectors(b)
            poly = voronoi_domain(b)
            pts = poly.vertices
            nonstrict = any(not v.strict for v in vvs)
            assert len(pts) == (4 if nonstrict else 6), b
            fours += nonstrict
            # each vertex within 8 units in the last place of the longest
            # Voronoi vector of the exact cell's, in the same counterclockwise order
            cell = _exact_cell(b)
            assert len(cell) == len(pts), b
            k = min(range(len(cell)), key=lambda i: self._off(pts[0], cell[i]))
            tol = 2.0 ** -50 * max(v.vector.norm() for v in vvs)
            assert max(map(self._off, pts, cell[k:] + cell[:k])) <= tol, b
            # the area, a sum of products of coordinates of size max|v|, is off
            # |det| by up to a few ulps times max|v|^2 / |det|, relatively
            det = _exact_det(b)
            bound = 1e-15 * max(b.v1.norm_sq(), b.v2.norm_sq()) / float(det)
            assert abs(Fraction(poly.area()) - det) <= Fraction(bound) * det, b
        assert fours > 130  # the 130 integer rectangles, and near-right thin cells

    def test_largest_accepted_coordinates_scale_by_two_to_the_k(self):
        k = 510
        small = Basis2(*(Vec2(math.ldexp(v.x, -k), math.ldexp(v.y, -k)) for v in (HUGE.v1, HUGE.v2)))
        pts = voronoi_domain(HUGE).vertices
        assert len(pts) == 6
        assert _bits(pts) == _bits(Vec2(math.ldexp(p.x, k), math.ldexp(p.y, k))
                                   for p in voronoi_domain(small).vertices)

    def test_coordinates_whose_squares_underflow_scale_by_two_to_the_k(self):
        # a rectangle of aspect 2^27 at 2^-541, whose shorter side's square
        # underflows to zero: 8 vectors and 4 vertices, 2^-541 times the unit cell's
        k = -541
        unit = Basis2(Vec2(1.0, 0.0), Vec2(0.0, 2.0 ** 27))
        tiny = Basis2(*(Vec2(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in unit))
        assert tiny.v1.norm_sq() == 0.0
        vvs, want = voronoi_vectors(tiny), voronoi_vectors(unit)
        assert len(vvs) == 8
        assert [(v.coeffs, v.strict) for v in vvs] == [(v.coeffs, v.strict) for v in want]
        assert _bits(v.vector for v in vvs) == _bits(
            Vec2(math.ldexp(v.vector.x, k), math.ldexp(v.vector.y, k)) for v in want)
        pts = voronoi_domain(tiny).vertices
        assert len(pts) == 4
        assert _bits(pts) == _bits(Vec2(math.ldexp(p.x, k), math.ldexp(p.y, k))
                                   for p in voronoi_domain(unit).vertices)

    def test_area_near_the_float_maximum(self):
        # |det| = 1.46e308: the sum of the doubled terms overflows, the halved ones do not
        det = _exact_det(HUGE)
        area = voronoi_domain(HUGE).area()
        assert math.isfinite(area)
        assert abs(Fraction(area) - det) <= Fraction(1e-15) * det
