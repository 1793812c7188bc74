"""Brute-force Voronoi oracle: vectors, domains, superbase cross-checks."""

import math
import tracemalloc

import pytest

from helpers import (
    apply_unimodular,
    make_rng,
    random_basis,
    random_unimodular,
    reference_clip_halfplane,
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
from rootforms.records import parse_record_line, project_to_2d
from rootforms.voronoi import TIE_TOL, _clip_halfplane

SQUARE = Basis2(Vec2(1, 0), Vec2(0, 1))
HEX = Basis2(Vec2(1, 0), Vec2(-0.5, math.sqrt(3) / 2))


def near_rectangular_basis(rng):
    """Sides at 90 degrees to within 1e-10 rad, turned at random: the clip leaves
    corners closer than VERTEX_TOL, which the merge step joins."""
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
        # the full enumeration held O(aspect) vectors here (over 100 MiB)
        tracemalloc.start()
        try:
            vvs = voronoi_vectors(Basis2(Vec2(1e-4, 0.0), Vec2(0.0, 1.0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert rounded_vectors(vvs, strict=True) == {(1e-4, 0), (-1e-4, 0), (0, 1), (0, -1)}
        assert len(vvs) == 8


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
    v_k is strict iff its partner v_i - v_j is longer than v_k by more than
    TIE_TOL, relatively. Every kernel-reduced superbase passes, also where
    the shear puts the partner near that band."""

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

            def near(v, u):
                return min((v.vector - u).norm(), (v.vector + u).norm()) <= tol

            for target, partner in ((s.v0, s.v1 - s.v2), (s.v1, s.v2 - s.v0), (s.v2, s.v0 - s.v1)):
                strict = partner.norm() > target.norm() * (1.0 + TIE_TOL)
                members = [v for v in vvs if near(v, target) or near(v, partner)]
                assert len(members) == (2 if strict else 4), s
                assert all(v.strict == strict for v in members), s


def _bits(poly):
    return [(p.x.hex(), p.y.hex()) for p in poly]


class TestClipHalfplane:
    """The crossing point is written in one place; the vertices are the
    reference's, bit for bit."""

    @staticmethod
    def _convex_polygon(rng):
        angles = sorted(map(float, rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 9)))))
        rx, ry = map(float, rng.uniform(0.5, 3.0, 2))
        cx, cy = map(float, rng.uniform(-1.0, 1.0, 2))
        return [Vec2(cx + rx * math.cos(t), cy + ry * math.sin(t)) for t in angles]

    def _assert_same(self, poly, w, offset):
        assert _bits(_clip_halfplane(poly, w, offset)) == _bits(
            reference_clip_halfplane(poly, w, offset))

    def test_seeded_polygons_and_lines(self):
        rng = make_rng(9400)
        for _ in range(300):
            poly = self._convex_polygon(rng)
            w = Vec2(*map(float, rng.normal(size=2)))
            self._assert_same(poly, w, float(rng.uniform(-3.0, 3.0)))
            p = poly[int(rng.integers(len(poly)))]
            self._assert_same(poly, w, p.dot(w))  # through a vertex: dp == 0 there

    def test_edge_on_the_line(self):
        square = [Vec2(1.0, 1.0), Vec2(-1.0, 1.0), Vec2(-1.0, -1.0), Vec2(1.0, -1.0)]
        for w in (Vec2(1.0, 0.0), Vec2(-1.0, 0.0), Vec2(0.0, 1.0), Vec2(0.0, -1.0)):
            for offset in (1.0, -1.0, 0.0):
                self._assert_same(square, w, offset)
        diamond = [Vec2(2.0, 0.0), Vec2(0.0, 2.0), Vec2(-2.0, 0.0), Vec2(0.0, -2.0)]
        for offset in (2.0, -2.0, 0.0):
            self._assert_same(diamond, Vec2(1.0, 1.0), offset)
        assert _clip_halfplane(square, Vec2(1.0, 0.0), 1.0) == square

    def test_overflowing_crossing_point_raises(self):
        # Basis2 accepts this basis, but p . w overflows against the start square's
        # corners and the first crossing point comes out NaN: it must not reach the cell.
        b = Basis2(Vec2(1.3e154, 0.0), Vec2(-6.5e153, 1.1258e154))
        with pytest.raises(ValueError, match=r"non-finite vector \(nan, nan\)"):
            voronoi_domain(b)
