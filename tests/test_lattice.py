"""Core lattice machinery: superbases, reduction, conorms, root forms, signs."""

import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    apply_unimodular,
    condition_number,
    make_rng,
    random_basis,
    random_unimodular,
    reflected_basis,
    rotated_basis,
)
from rootforms import (
    Basis2,
    ConormTriple,
    DegenerateBasis,
    DegenerateLattice,
    LatticeError,
    LatticeSign,
    NegativeConorm,
    ObtuseSuperbase,
    RootForm,
    Superbase2,
    Vec2,
    VonormTriple,
    conorms,
    conorms_from_vonorms,
    continuity_bound,
    oriented_root_form,
    reconstruct_superbase,
    reduce_to_obtuse,
    root_form,
    root_form_from_values,
    root_metric,
    root_metric_oriented,
    squared_norm_from_conorms,
    superbase_distance_linf,
    superbase_from_basis,
    verify_partial_sums,
    vonorms,
    vonorms_from_conorms,
    voronoi_domain,
    voronoi_vectors,
)
from rootforms import lattice
from rootforms.lattice import lagrange_gauss, oriented_root_products
from rootforms.projection import (qt_coords, to_full_triangle, to_quotient_triangle,
                                  to_quotient_triangle_oriented)

SQ3, SQ6, SQ7 = math.sqrt(3), math.sqrt(6), math.sqrt(7)


def basis(x1, y1, x2, y2):
    return Basis2(Vec2(x1, y1), Vec2(x2, y2))


def hexagonal_basis(a=1.0):
    return basis(a, 0.0, -a / 2.0, a * math.sqrt(3) / 2.0)


def assert_obtuse(s):
    """Independent check: all pairwise scalar products nonpositive."""
    v0, v1, v2 = s.vectors()
    tol = 1e-12 * max(v.norm_sq() for v in s.vectors())
    assert v0.dot(v1) <= tol and v0.dot(v2) <= tol and v1.dot(v2) <= tol


def vector_set(s):
    return {(round(v.x, 9), round(v.y, 9)) for v in s.vectors()}


class TestSuperbaseFromBasis:
    def test_skew_example(self):
        s = superbase_from_basis(basis(3, 0, -1, 3))
        assert (s.v0.x, s.v0.y) == (-2, -3)
        assert (s.v1.x, s.v1.y) == (3, 0)
        assert (s.v2.x, s.v2.y) == (-1, 3)

    def test_unit_square(self):
        s = superbase_from_basis(basis(1, 0, 0, 1))
        assert (s.v0.x, s.v0.y) == (-1, -1)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateBasis):
            basis(1, 0, 2, 0)

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            Vec2(math.nan, 0.0)

    @pytest.mark.parametrize("coords", [
        (1e200, 1e200, 1e200, 2e200),  # det = inf - inf = nan
        (1e200, 3e199, -2e199, 1.1e200),  # det = inf
    ])
    def test_overflowing_coordinates_rejected(self, coords):
        # these used to pass entry and fail later as a degenerate lattice or
        # basis; neither lattice is degenerate, the floats just overflow
        with pytest.raises(LatticeError, match="^coordinates overflow") as info:
            basis(*coords)
        assert type(info.value) is LatticeError
        x1, y1, x2, y2 = coords
        for cls in (Superbase2, ObtuseSuperbase):
            with pytest.raises(LatticeError, match="^coordinates overflow") as info:
                cls(Vec2(-x1 - x2, -y1 - y2), Vec2(x1, y1), Vec2(x2, y2))
            assert type(info.value) is LatticeError


    def test_overflowing_sum_rejected(self):
        # v1 + v2 overflows and Vec2 arithmetic does not check its result, so
        # the entry check refuses the basis, and a superbase built from an
        # unchecked pair of the same vectors
        v1, v2 = Vec2(1.5e308, 0.0), Vec2(1.5e308, 1e300)
        assert math.isinf((v1 + v2).x)
        with pytest.raises(LatticeError, match="^coordinates overflow") as info:
            Basis2(v1, v2)
        assert type(info.value) is LatticeError
        with pytest.raises(LatticeError, match="^coordinates overflow") as info:
            superbase_from_basis(SimpleNamespace(v1=v1, v2=v2))
        assert type(info.value) is LatticeError

    def test_arithmetic_keeps_the_vector_type(self):
        u, w = Vec2(1.0, 2.0), Vec2(0.5, -1.0)
        for r in (u + w, u - w, -u, u.rotated(math.pi / 2)):
            assert type(r) is Vec2
        assert (u + w, u - w, -u) == (Vec2(1.5, 1.0), Vec2(0.5, 3.0), Vec2(-1.0, -2.0))
        assert u.rotated(math.pi / 2) == pytest.approx((-2.0, 1.0))


class TestConormsVonorms:
    def test_skew_conorms(self):
        s = superbase_from_basis(basis(3, 0, -1, 3))
        assert conorms(s) == (3, 6, 7)

    def test_square_conorms(self):
        s = superbase_from_basis(basis(1, 0, 0, 1))
        assert conorms(s) == (0, 1, 1)

    def test_nonobtuse_conorms_negative(self):
        # direct dot products by hand: p12=-1, p01=2, p02=3
        s = superbase_from_basis(basis(1, 0, 1, 1))
        assert conorms(s) == (-1, 2, 3)

    def test_square_vonorms(self):
        s = superbase_from_basis(basis(1, 0, 0, 1))
        assert vonorms(s) == (2, 1, 1)

    def test_hexagonal_vonorms(self):
        n = vonorms(superbase_from_basis(hexagonal_basis()))
        assert n == pytest.approx((1, 1, 1), abs=1e-15)

    def test_skew_vonorms_match_conorm_sums(self):
        s = superbase_from_basis(basis(3, 0, -1, 3))
        n = vonorms(s)
        assert n == (13, 9, 10)
        p = conorms(s)
        assert n.n0 == p.p01 + p.p02

    def test_duality_examples(self):
        assert vonorms_from_conorms(ConormTriple(3, 6, 7)) == (13, 9, 10)
        assert conorms_from_vonorms(VonormTriple(13, 9, 10)) == (3, 6, 7)
        assert vonorms_from_conorms(ConormTriple(0, 1, 1)) == (2, 1, 1)
        q = 0.5  # hexagonal with a = 1
        assert vonorms_from_conorms(ConormTriple(q, q, q)) == (2 * q, 2 * q, 2 * q)

    def test_duality_random_roundtrip(self):
        rng = make_rng(11)
        for _ in range(300):
            p = ConormTriple(*rng.uniform(0.0, 5.0, size=3))
            n = vonorms_from_conorms(p)
            back = conorms_from_vonorms(n)
            assert back == pytest.approx(tuple(p), rel=1e-12, abs=1e-12)

    def test_triangle_violation_raises(self):
        with pytest.raises(NegativeConorm, match=re.escape(
                "vonorms (10.0, 1.0, 1.0) violate a triangle inequality: "
                "conorms (-4.0, 5.0, 5.0)")):
            conorms_from_vonorms(VonormTriple(10.0, 1.0, 1.0))

    @pytest.mark.parametrize("cls, build", [
        (NegativeConorm, lambda f: ObtuseSuperbase(Vec2(f(-2.0), f(-1.0)), Vec2(f(1.0), f(0.0)),
                                                   Vec2(f(1.0), f(1.0)))),
        (NegativeConorm, lambda f: conorms_from_vonorms(VonormTriple(f(10.0), f(1.0), f(1.0)))),
        (DegenerateLattice, lambda f: lattice._obtuse_root_products(
            f(-1.0), f(0.0), f(1.0), f(0.0), f(0.0), f(0.0))),
        (ValueError, lambda f: qt_coords(f(math.nan), f(1.0), f(2.0))),
        (DegenerateLattice, lambda f: reconstruct_superbase(RootForm(f(0.0), f(0.0), f(1.0)),
                                                            LatticeSign.POSITIVE)),
    ])
    def test_numpy_scalars_give_the_float_message(self, cls, build):
        # the error text shows plain floats, not np.float64(...) reprs
        messages = []
        for f in (float, np.float64):
            with pytest.raises(cls) as info:
                build(f)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestReduction:
    def test_one_step_example(self):
        # oracle: one Lagrange-Gauss pass subtracts v1 = (1,0) once from
        # v2 = (1,1), leaving the orthogonal pair ((1,0),(0,1)), which needs
        # no sign flip; v0 = -(v1 + v2) completes the superbase. Verify that
        # set, obtuseness by direct scalar products, conorms and the pass count
        s = superbase_from_basis(basis(1, 0, 1, 1))
        obt = reduce_to_obtuse(s)
        assert obt.reduction_steps == 1
        assert vector_set(obt) == {(1, 0), (0, 1), (-1, -1)}
        assert_obtuse(obt)
        assert sorted(conorms(obt)) == [0, 1, 1]

    def test_already_obtuse_unchanged(self):
        s = superbase_from_basis(basis(3, 0, -1, 3))
        obt = reduce_to_obtuse(s)
        assert obt.reduction_steps == 0
        assert conorms(obt) == (3, 6, 7)
        assert obt.vectors() == s.vectors()

    def test_result_is_the_superbase_the_kernel_judged(self):
        # v0 is off -(v1 + v2) by 5e-10, within SUM_TOL, and the conorm
        # -v0 . v1 = -5e-10 is below -NEG_TOL * max vonorm
        s = Superbase2(Vec2(5e-10, 1), Vec2(1, 0), Vec2(-1, -1))
        obt = reduce_to_obtuse(s)
        assert obt.vectors() == ((0, 1), (1, 0), (-1, -1))
        assert root_form(obt) == RootForm(0, 1, 1)

    def test_hexagonal_unchanged(self):
        obt = reduce_to_obtuse(superbase_from_basis(hexagonal_basis()))
        assert obt.reduction_steps == 0
        assert conorms(obt) == pytest.approx((0.5, 0.5, 0.5), abs=1e-15)

    def test_swap_needs_a_second_pass(self):
        # (3.1, 0.5) - 3 (1, 0) = (0.1, 0.5) is shorter than (1, 0), so the
        # pair is swapped and a second pass is needed
        s = superbase_from_basis(basis(1, 0, 3.1, 0.5))
        assert reduce_to_obtuse(s).reduction_steps == 2

    def test_monotone_vonorm_decrease(self):
        # an obtuse superbase has the least vonorm sum among the superbases of
        # its lattice, so reduction never raises it, and reducing the result
        # again changes nothing; the passes grow with log(skew), not skew
        rng = make_rng(23)
        for _ in range(50):
            b = apply_unimodular(random_basis(rng), random_unimodular(rng, shears=5))
            s = superbase_from_basis(b)
            obt = reduce_to_obtuse(s)
            assert sum(vonorms(obt)) <= sum(vonorms(s)) * (1.0 + 1e-12)
            assert_obtuse(obt)
            again = reduce_to_obtuse(obt)
            assert again.reduction_steps == 0 and again.vectors() == obt.vectors()
            assert obt.reduction_steps <= 3 + math.log2(condition_number(b))

    def test_underflowing_squared_length_is_reported(self):
        # the basis passes the relative determinant test, but |v1|^2 is below
        # the smallest subnormal; the flip rule ran into its step cap here
        s = superbase_from_basis(basis(1e-162, 0.0, -5e-154, 8.6e-154))
        with pytest.raises(LatticeError, match="underflows to zero"):
            reduce_to_obtuse(s)

    def test_lagrange_gauss_rows(self):
        # the integer rows rebuild the reduced pair from the input pair and
        # have determinant +-1, and the pair is Lagrange-Gauss reduced
        rng = make_rng(29)
        for _ in range(200):
            b = apply_unimodular(random_basis(rng), random_unimodular(rng, shears=8))
            (x1, y1, x2, y2), (m1, m2), _ = lagrange_gauss(b.v1.x, b.v1.y, b.v2.x, b.v2.y)
            assert abs(m1[0] * m2[1] - m1[1] * m2[0]) == 1
            for (c1, c2), (x, y) in ((m1, (x1, y1)), (m2, (x2, y2))):
                rebuilt = Vec2(c1 * b.v1.x + c2 * b.v2.x, c1 * b.v1.y + c2 * b.v2.y)
                terms = abs(c1) * b.v1.norm() + abs(c2) * b.v2.norm()
                assert (rebuilt - Vec2(x, y)).norm() <= 1e-12 * terms
            n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
            assert n1 <= n2
            assert abs(x1 * x2 + y1 * y2) <= 0.5 * n1 * (1.0 + 1e-12)

    def test_same_lattice_random(self):
        # change of basis from input to output is integral with det +-1
        rng = make_rng(7)
        for _ in range(200):
            b = apply_unimodular(random_basis(rng), random_unimodular(rng))
            obt = reduce_to_obtuse(superbase_from_basis(b))
            a_in = np.array([[b.v1.x, b.v1.y], [b.v2.x, b.v2.y]])
            a_out = np.array([[obt.v1.x, obt.v1.y], [obt.v2.x, obt.v2.y]])
            m = a_out @ np.linalg.inv(a_in)
            assert np.allclose(m, np.rint(m), atol=1e-6)
            assert abs(np.linalg.det(np.rint(m))) == pytest.approx(1.0, abs=1e-9)


class TestValidatedOnce:
    """A value is checked when it is built; the functions that take it do not
    check it again, and a kernel result is oriented once per call that needs it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("check_basis", "_obtuse_root_products"):
            def counted(*args, _fn=getattr(lattice, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(lattice, name, counted)
        return counts

    # one basis that needs two passes, one whose superbase is already obtuse
    BASES = [(1, 0, 3.1, 0.5), (3, 0, -1, 3)]

    @pytest.mark.parametrize("coords", BASES)
    def test_oriented_root_form_of_a_built_basis(self, calls, coords):
        b = basis(*coords)
        calls.clear()
        orf, sign = oriented_root_form(b)
        assert calls == {"_obtuse_root_products": 1}
        assert (orf, sign) == oriented_root_products(*coords)[1:3]

    @pytest.mark.parametrize("coords", BASES)
    def test_the_four_call_chain(self, calls, coords):
        rf = root_form(reduce_to_obtuse(superbase_from_basis(basis(*coords))))
        assert calls == {"check_basis": 2, "_obtuse_root_products": 2}
        assert rf == tuple(sorted(oriented_root_products(*coords)[1]))


class TestRootForm:
    def test_square(self):
        obt = reduce_to_obtuse(superbase_from_basis(basis(1, 0, 0, 1)))
        assert root_form(obt) == (0, 1, 1)

    def test_hexagonal(self):
        obt = reduce_to_obtuse(superbase_from_basis(hexagonal_basis()))
        r = 1.0 / math.sqrt(2.0)
        assert root_form(obt) == pytest.approx((r, r, r), rel=1e-15)

    def test_skew(self):
        obt = reduce_to_obtuse(superbase_from_basis(basis(3, 0, -1, 3)))
        assert root_form(obt) == pytest.approx((SQ3, SQ6, SQ7), rel=1e-15)

    def test_two_zero_products_rejected(self):
        with pytest.raises(DegenerateLattice):
            root_form_from_values(0.0, 0.0, 5.0)

    def test_invariance_random(self):
        # unimodular recombination + rotation + optional reflection must not
        # move the unsigned root form
        rng = make_rng(31)
        for _ in range(200):
            b = random_basis(rng)
            rf = root_form(reduce_to_obtuse(superbase_from_basis(b)))
            b2 = apply_unimodular(b, random_unimodular(rng))
            b2 = rotated_basis(b2, rng.uniform(0, 2 * math.pi))
            if rng.random() < 0.5:
                b2 = reflected_basis(b2)
            rf2 = root_form(reduce_to_obtuse(superbase_from_basis(b2)))
            assert rf2 == pytest.approx(tuple(rf), rel=1e-9, abs=1e-9 * rf.r02)


class TestOrientedRootForm:
    def test_positive_example(self):
        orf, sign = oriented_root_form(basis(3, 0, -1, 3))
        assert orf == pytest.approx((SQ3, SQ6, SQ7), rel=1e-15)
        assert sign is LatticeSign.POSITIVE

    def test_negative_mirror_example(self):
        orf, sign = oriented_root_form(basis(3, 0, -2, 3))
        assert orf == pytest.approx((SQ3, SQ7, SQ6), rel=1e-15)
        assert sign is LatticeSign.NEGATIVE

    def test_square_neutral(self):
        orf, sign = oriented_root_form(basis(1, 0, 0, 1))
        assert orf == (0, 1, 1)
        assert sign is LatticeSign.NEUTRAL

    def test_rectangular_neutral(self):
        # one vanishing conorm: the lattice equals its mirror image, so the
        # sign must be neutral even though all three products differ
        orf, sign = oriented_root_form(basis(1, 0, 0, 2))
        assert sign is LatticeSign.NEUTRAL
        assert orf == (0, 1, 2)

    def test_rectangular_neutral_stable_under_relabeling(self):
        _, sign = oriented_root_form(basis(0, 2, 1, 0))
        assert sign is LatticeSign.NEUTRAL

    def test_centred_rectangular_neutral(self):
        # two equal conorms: p01 = p02
        orf, sign = oriented_root_form(basis(1, 0, -0.5, 0.8))
        assert sign is LatticeSign.NEUTRAL
        assert orf.first <= orf.second <= orf.third

    def test_rotation_and_unimodular_invariance(self):
        rng = make_rng(47)
        checked = 0
        while checked < 150:
            b = random_basis(rng)
            orf, sign = oriented_root_form(b)
            if sign is LatticeSign.NEUTRAL:
                continue
            m = random_unimodular(rng)
            b2 = rotated_basis(apply_unimodular(b, m), rng.uniform(0, 2 * math.pi))
            orf2, sign2 = oriented_root_form(b2)
            assert sign2 is sign
            assert orf2 == pytest.approx(tuple(orf), rel=1e-9, abs=1e-9 * max(orf))
            checked += 1

    def test_reflection_flips_sign(self):
        rng = make_rng(53)
        checked = 0
        while checked < 150:
            b = random_basis(rng)
            orf, sign = oriented_root_form(b)
            if sign is LatticeSign.NEUTRAL:
                continue
            orf2, sign2 = oriented_root_form(reflected_basis(b))
            assert {sign, sign2} == {LatticeSign.POSITIVE, LatticeSign.NEGATIVE}
            assert orf2 == pytest.approx(
                (orf.first, orf.third, orf.second), rel=1e-9, abs=1e-9 * max(orf)
            )
            checked += 1

    def test_basis_past_the_former_second_degeneracy_scale(self):
        # det -1: the square lattice, with kappa about 8e11. Basis2 accepted
        # it, and Superbase2 then rejected it as collinear, because it also
        # scaled its degeneracy test by |v0| = |v1 + v2|
        b = basis(848285, 418337, 49753, 24536)
        assert b.det == -1
        assert oriented_root_form(b) == ((0, 1, 1), LatticeSign.NEUTRAL)
        assert sorted(conorms(reduce_to_obtuse(superbase_from_basis(b)))) == [0, 1, 1]

    def test_one_entry_check_for_basis_superbase_and_kernel(self):
        # Basis2, superbase_from_basis and the float kernel accept and reject
        # the same bases, with the same error class, around the DEG_TOL
        # threshold and at the scales where squared lengths overflow
        rng = make_rng(67)
        outcomes = set()
        for _ in range(400):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            t, eps = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-13.0, -10.0)
            f = 10.0 ** float(rng.choice([0.0, 150.0, 153.9, 154.1, 160.0]))
            c, s = math.cos(ang), math.sin(ang)
            coords = (f * c, f * s, f * (t * c - eps * s), f * (t * s + eps * c))
            seen = []
            for build in (
                lambda: basis(*coords),
                lambda: superbase_from_basis(basis(*coords)),
                lambda: oriented_root_products(*coords),
            ):
                try:
                    build()
                    seen.append(None)
                except LatticeError as exc:
                    seen.append(type(exc))
            assert len(set(seen)) == 1, (coords, seen)
            outcomes.add(seen[0])
        assert outcomes == {None, DegenerateBasis, LatticeError}


class TestSquaredNorm:
    def test_basis_vector(self):
        assert squared_norm_from_conorms(ConormTriple(3, 6, 7), 1, 0) == 9

    def test_zero_vector(self):
        assert squared_norm_from_conorms(ConormTriple(3, 6, 7), 0, 0) == 0

    def test_sum_vector(self):
        assert squared_norm_from_conorms(ConormTriple(3, 6, 7), 1, 1) == 13

    def test_matches_direct_computation(self):
        rng = make_rng(61)
        for _ in range(200):
            b = random_basis(rng)
            c = conorms(superbase_from_basis(b))
            c1, c2 = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
            direct = Vec2(
                c1 * b.v1.x + c2 * b.v2.x, c1 * b.v1.y + c2 * b.v2.y
            ).norm_sq()
            formula = squared_norm_from_conorms(c, c1, c2)
            assert formula == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestObtuseInvariants:
    def test_vonorm_triangle_inequalities(self):
        rng = make_rng(71)
        for _ in range(200):
            obt = reduce_to_obtuse(superbase_from_basis(random_basis(rng)))
            n0, n1, n2 = vonorms(obt)
            slack = 1e-9 * max(n0, n1, n2)
            assert n0 <= n1 + n2 + slack
            assert n1 <= n0 + n2 + slack
            assert n2 <= n0 + n1 + slack

    def test_two_zero_conorms_rejected(self):
        with pytest.raises(DegenerateBasis,
                           match=r"^basis determinant 0 below tolerance for scale 1$"):
            ObtuseSuperbase(Vec2(-1, 0), Vec2(1, 0), Vec2(0, 0))

    def test_superbase_must_sum_to_zero(self):
        for cls in (Superbase2, ObtuseSuperbase):
            with pytest.raises(ValueError, match=r"^superbase vectors sum to \(2, 1\), not zero$"):
                cls(Vec2(1, 0), Vec2(1, 0), Vec2(0, 1))


def _equivariance_bases():
    """300 pinned bases: Gaussian ones, and half of them moved by a unimodular
    matrix so that the reduction makes passes."""
    rng = make_rng(20261019)
    bases = [random_basis(rng) for _ in range(300)]
    moved = [apply_unimodular(b, random_unimodular(rng)) for b in bases[::2]]
    return [(*b.v1, *b.v2) for b in bases[1::2] + moved]


def _scaled_results(bases, k):
    """Per basis, on its coordinates scaled by 2^k: (lengths, rest). lengths maps
    each result measured in lengths to its floats: the kernel's superbase and
    root products, the reduced superbase's root form, the reconstructed
    superbase, the root metrics and the L-inf distance to the next basis, and
    the continuity bound for that distance. rest holds what carries no length:
    the sign, the pass count and the triangle points."""
    orders = (2.0, math.inf)
    scaled = [[math.ldexp(x, k) for x in b] for b in bases]
    runs = [oriented_root_products(*b) for b in scaled]
    rebuilt = [reconstruct_superbase(RootForm(*sorted(orf)), sign) for _, orf, sign, _ in runs]
    out = []
    for i, (xy, orf, sign, passes) in enumerate(runs):
        j = (i + 1) % len(runs)
        rf = RootForm(*sorted(orf))
        x1, y1, x2, y2 = scaled[i]
        distance = superbase_distance_linf(rebuilt[i], rebuilt[j])
        lengths = {
            "superbase": xy,
            "root products": orf,
            "reduced root form": root_form(reduce_to_obtuse(
                superbase_from_basis(Basis2(Vec2(x1, y1), Vec2(x2, y2))))),
            "reconstructed superbase": tuple(c for v in rebuilt[i][:3] for c in v),
            "root metrics": tuple(m(orf, runs[j][1], q) for m in (root_metric, root_metric_oriented)
                                  for q in orders),
            "superbase distance": (distance,),
            "continuity bound": tuple(continuity_bound(rf[2], distance, q) for q in orders),
        }
        rest = (sign, passes, qt_coords(*rf), to_full_triangle(rf), to_quotient_triangle(rf),
                to_quotient_triangle_oriented(orf, sign))
        out.append((lengths, rest))
    return out


def _scaled_voronoi(bases, k):
    """Per basis, on its coordinates scaled by 2^k: (lengths, rest). lengths holds
    the coordinates of the Voronoi vectors and of the domain's vertices; rest the
    vectors' coefficients and strictness, and verify_partial_sums of the reduced
    superbase."""
    out = []
    for b in bases:
        scaled = basis(*(math.ldexp(x, k) for x in b))
        vvs = voronoi_vectors(scaled)
        lengths = (tuple(c for v in vvs for c in v.vector),
                   tuple(c for p in voronoi_domain(scaled).vertices for c in p))
        rest = ([(v.coeffs, v.strict) for v in vvs],
                verify_partial_sums(reduce_to_obtuse(superbase_from_basis(scaled))))
        out.append((lengths, rest))
    return out


class TestPowerOfTwoEquivariance:
    """Scaling a basis by 2^k is exact in floats, so every length the kernel,
    the reconstruction and the metrics compute scales by exactly 2^k, and every
    ratio, sign and pass count stays put: no tolerance. The range is where it
    holds today; squared lengths of these bases stay normal floats there."""

    BASES = _equivariance_bases()
    UNSCALED = _scaled_results(BASES, 0)

    @pytest.mark.parametrize("k", range(-500, 501, 7))
    def test_lengths_scale_and_the_rest_stays(self, k):
        assert any(rest[1] for _, rest in self.UNSCALED)  # some bases take reduction passes
        for (lengths, rest), (want_lengths, want_rest) in zip(_scaled_results(self.BASES, k),
                                                              self.UNSCALED):
            for name, values in lengths.items():
                assert values == tuple(math.ldexp(x, k) for x in want_lengths[name]), name
            assert rest == want_rest

    VORONOI_BASES = BASES[::4]
    VORONOI_UNSCALED = _scaled_voronoi(VORONOI_BASES, 0)

    @pytest.mark.parametrize("k", range(-500, 501, 7))
    def test_voronoi_lengths_scale_and_the_rest_stays(self, k):
        # the oracle builds its vectors unchecked from the checked basis: this
        # pins their bits
        assert all(ok for _, (_, ok) in self.VORONOI_UNSCALED)
        for (lengths, rest), (want_lengths, want_rest) in zip(
                _scaled_voronoi(self.VORONOI_BASES, k), self.VORONOI_UNSCALED):
            for values, want in zip(lengths, want_lengths):
                assert values == tuple(math.ldexp(x, k) for x in want)
            assert rest == want_rest
