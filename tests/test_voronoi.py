"""Brute-force Voronoi oracle: vectors, domains, superbase cross-checks."""

import math
import tracemalloc

import pytest

from helpers import (
    apply_unimodular,
    make_rng,
    random_basis,
    random_unimodular,
    reference_voronoi_vectors,
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


def _rotated_pair(angle, x2, y2):
    """Basis ((1, 0), (x2, y2)) rotated by angle."""
    c, s = math.cos(angle), math.sin(angle)
    return Basis2(Vec2(c, s), Vec2(c * x2 - s * y2, s * x2 + c * y2))


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
