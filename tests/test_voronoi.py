"""Brute-force Voronoi oracle: vectors, domains, superbase cross-checks."""

import math

import pytest

from helpers import apply_unimodular, make_rng, random_basis, random_unimodular
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

SQUARE = Basis2(Vec2(1, 0), Vec2(0, 1))
HEX = Basis2(Vec2(1, 0), Vec2(-0.5, math.sqrt(3) / 2))


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
        rng = make_rng(107)
        for _ in range(100):
            b = random_basis(rng)
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
        for b in (SQUARE, HEX, Basis2(Vec2(3, 0), Vec2(-1, 3))):
            poly = voronoi_domain(b)
            assert poly.area() > 0.0


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
