"""Root metrics, superbase alignment distance, continuity bounds."""

import math

import pytest

from helpers import (
    make_rng,
    oracle_superbase_distance_linf,
    perturbed_superbase,
    random_obtuse_superbase,
    random_oriented_form,
    random_root_form,
)
from rootforms import (
    LatticeSign,
    ObtuseSuperbase,
    RootForm,
    Vec2,
    conorms,
    continuity_bound,
    reconstruct_superbase,
    reduce_to_obtuse,
    root_form,
    root_metric,
    root_metric_oriented,
    superbase_distance_linf,
)

INF = math.inf
SQ6, SQ7 = math.sqrt(6), math.sqrt(7)


class TestRootMetric:
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_square_vs_centred_rectangular(self, q):
        # between the right-angle vertex and the hypotenuse midpoint shapes
        a = RootForm(0.0, 0.5, 0.5)
        b = RootForm(1 / 6, 1 / 6, 2 / 3)
        expected = (2 * (1 / 6) ** q + (1 / 3) ** q) ** (1 / q)
        assert root_metric(a, b, q) == pytest.approx(expected, abs=1e-15)

    def test_square_vs_centred_rectangular_maxnorm(self):
        assert root_metric(RootForm(0, 0.5, 0.5), RootForm(1 / 6, 1 / 6, 2 / 3), INF) == (
            pytest.approx(1 / 3, abs=1e-15)
        )

    def test_identical_forms(self):
        rf = RootForm(0.3, 1.1, 2.2)
        for q in (1.0, 2.0, INF):
            assert root_metric(rf, rf, q) == 0.0

    def test_unsorted_inputs_canonicalised(self):
        a = (math.sqrt(3), SQ6, SQ7)
        b = (math.sqrt(3), SQ7, SQ6)
        for q in (1.0, 2.0, INF):
            assert root_metric(a, b, q) == 0.0

    def test_identity_permutation_attains_minimum(self):
        # conjecture-level: for ascending triples the identity already wins
        rng = make_rng(2)
        for _ in range(400):
            a = random_root_form(rng)
            b = random_root_form(rng)
            for q in (1.0, 2.0, INF):
                ident = max(abs(x - y) for x, y in zip(a, b)) if q == INF else (
                    sum(abs(x - y) ** q for x, y in zip(a, b)) ** (1 / q)
                )
                assert root_metric(a, b, q) == pytest.approx(ident, rel=1e-12, abs=1e-15)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            root_metric((0, 1, 1), (0, 1, 2), 0.5)


class TestOrientedRootMetric:
    @pytest.mark.parametrize("q", [1.0, 2.0, 5.0])
    def test_mirror_pair(self, q):
        a = (math.sqrt(3), SQ6, SQ7)
        b = (math.sqrt(3), SQ7, SQ6)
        assert root_metric_oriented(a, b, q) == pytest.approx(
            2 ** (1 / q) * (SQ7 - SQ6), abs=1e-15
        )

    def test_mirror_pair_maxnorm(self):
        a = (math.sqrt(3), SQ6, SQ7)
        b = (math.sqrt(3), SQ7, SQ6)
        assert root_metric_oriented(a, b, INF) == pytest.approx(SQ7 - SQ6, abs=1e-15)

    def test_self_distance_zero(self):
        orf = (0.4, 1.7, 0.9)
        for q in (1.0, 2.0, INF):
            assert root_metric_oriented(orf, orf, q) == 0.0

    def test_cyclic_invariance(self):
        rng = make_rng(3)
        for _ in range(100):
            a = random_oriented_form(rng)
            b = random_oriented_form(rng)
            b_rot = (b[1], b[2], b[0])
            for q in (1.0, 2.0, INF):
                assert root_metric_oriented(a, b, q) == pytest.approx(
                    root_metric_oriented(a, b_rot, q), abs=1e-15
                )

    def test_plain_never_exceeds_oriented(self):
        rng = make_rng(5)
        for _ in range(300):
            a = random_oriented_form(rng)
            b = random_oriented_form(rng)
            for q in (1.0, 2.0, INF):
                assert root_metric(a, b, q) <= root_metric_oriented(a, b, q) + 1e-15


class TestMetricAxioms:
    @pytest.mark.parametrize("oriented", [False, True])
    def test_axioms_random_triples(self, oriented):
        rng = make_rng(13)
        dist = root_metric_oriented if oriented else root_metric
        gen = random_oriented_form if oriented else random_root_form
        for _ in range(500):
            a, b, c = gen(rng), gen(rng), gen(rng)
            for q in (1.0, 2.0, INF):
                dab, dba = dist(a, b, q), dist(b, a, q)
                assert dab >= 0.0
                assert dab == dba  # bit-exact symmetry
                assert dist(a, a, q) == 0.0
                assert dab + dist(b, c, q) >= dist(a, c, q) - 1e-12

    @pytest.mark.parametrize("oriented", [False, True])
    def test_identity_of_indiscernibles(self, oriented):
        rng = make_rng(17)
        dist = root_metric_oriented if oriented else root_metric
        gen = random_oriented_form if oriented else random_root_form
        for _ in range(200):
            a, b = gen(rng), gen(rng)
            for q in (1.0, 2.0, INF):
                if dist(a, b, q) == 0.0:
                    assert max(abs(x - y) for x, y in zip(sorted(a), sorted(b))) < 1e-12


class TestContinuityBound:
    def test_zero_perturbation(self):
        for q in (1.0, 2.0, INF):
            assert continuity_bound(1.0, 0.0, q) == 0.0

    def test_maxnorm_value(self):
        assert continuity_bound(2.0, 0.01, INF) == pytest.approx(0.2, abs=1e-15)

    def test_q1_value(self):
        assert continuity_bound(1.0, 0.5, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            continuity_bound(-1.0, 0.1, 2.0)


class TestForwardContinuity:
    @pytest.mark.parametrize("delta", [1e-1, 1e-3, 1e-5])
    def test_root_forms_move_within_bound(self, delta):
        # conorm floor keeps the perturbed superbase obtuse, as the bound's
        # hypotheses require
        rng = make_rng(int(1 / delta))
        for _ in range(150):
            s = random_obtuse_superbase(rng, conorm_lo=0.8, conorm_hi=3.0)
            s2, actual = perturbed_superbase(rng, s, delta)
            assert min(conorms(s2)) >= 0.0
            obt2 = reduce_to_obtuse(s2)
            rf1, rf2 = root_form(s), root_form(obt2)
            length = max(v.norm() for v in (*s.vectors(), *s2.vectors()))
            for q in (1.0, 2.0, INF):
                bound = continuity_bound(length, actual, q)
                assert root_metric(rf1, rf2, q) <= bound + 1e-9

    def test_product_continuity(self):
        # |sqrt(-u1.u2) - sqrt(-v1.v2)| <= sqrt(2 l delta) for nonpositive
        # scalar products and delta-close vectors
        rng = make_rng(29)
        done = 0
        while done < 300:
            v1 = Vec2(*rng.normal(0, 1, 2))
            v2 = Vec2(*rng.normal(0, 1, 2))
            if v1.dot(v2) > 0.0:
                continue
            delta = 10.0 ** rng.uniform(-6, -1)
            u1 = v1 + Vec2(*(delta * rng.uniform(-0.7, 0.7, 2)))
            u2 = v2 + Vec2(*(delta * rng.uniform(-0.7, 0.7, 2)))
            if u1.dot(u2) > 0.0:
                continue
            length = max(w.norm() for w in (u1, u2, v1, v2))
            dmax = max((u1 - v1).norm(), (u2 - v2).norm())
            gap = abs(math.sqrt(-u1.dot(u2)) - math.sqrt(-v1.dot(v2)))
            assert gap <= math.sqrt(2 * length * dmax) + 1e-12
            done += 1


class TestSuperbaseDistance:
    def test_rotated_copy_is_zero(self):
        rng = make_rng(37)
        s = random_obtuse_superbase(rng)
        th = math.radians(37)
        s2 = ObtuseSuperbase(s.v0.rotated(th), s.v1.rotated(th), s.v2.rotated(th))
        scale = max(v.norm() for v in s.vectors())
        assert superbase_distance_linf(s, s2) <= 1e-8 * scale

    def test_perturbation_upper_bound(self):
        # alignment at the identity rotation already achieves the noise size
        rng = make_rng(41)
        for _ in range(20):
            s = random_obtuse_superbase(rng, conorm_lo=0.5)
            delta = 1e-3
            s2, actual = perturbed_superbase(rng, s, delta)
            obt2 = reduce_to_obtuse(s2)
            d = superbase_distance_linf(s, obt2)
            assert d <= actual + 1e-8

    def test_square_mirror_reachable_with_reflection(self):
        sq = reduce_to_obtuse(
            ObtuseSuperbase(Vec2(-1, -1), Vec2(1, 0), Vec2(0, 1))
        )
        mirrored = ObtuseSuperbase(Vec2(1, -1), Vec2(-1, 0), Vec2(0, 1))
        assert superbase_distance_linf(sq, mirrored, allow_reflection=True) <= 1e-8

    def test_reflection_flag_matters_for_chiral_lattice(self):
        s = reconstruct_superbase(RootForm(0.7, 1.0, 1.9), LatticeSign.POSITIVE)
        m = reconstruct_superbase(RootForm(0.7, 1.0, 1.9), LatticeSign.NEGATIVE)
        with_refl = superbase_distance_linf(s, m, allow_reflection=True)
        without = superbase_distance_linf(s, m, allow_reflection=False)
        assert with_refl <= 1e-8
        assert without > 0.1



def _disguised_near_duplicate(rng, s, delta):
    """s perturbed by delta, reduced, then rotated, maybe mirrored and relabelled."""
    obt = reduce_to_obtuse(perturbed_superbase(rng, s, delta)[0])
    angle = rng.uniform(0.0, 2.0 * math.pi)
    vs = [w.rotated(angle) for w in obt.vectors()]
    if rng.random() < 0.5:
        vs = [Vec2(-w.x, w.y) for w in vs]
    order = rng.permutation(3)
    return ObtuseSuperbase(*(vs[i] for i in order))


def _alignment_pairs(family, rng):
    if family == "random":
        for _ in range(40):
            yield random_obtuse_superbase(rng), random_obtuse_superbase(rng)
        return
    if family.startswith("near"):
        scale = {"near": 1.0, "near_1e100": 1e100, "near_1e-100": 1e-100}[family]
        for _ in range(60):
            s = random_obtuse_superbase(rng, scale=scale)
            delta = 10.0 ** rng.uniform(-12, -1) * scale
            yield s, _disguised_near_duplicate(rng, s, delta)
        return
    forms = {"square": (0.0, 1.0, 1.0), "hexagonal": (1.0, 1.0, 1.0),
             "rectangular": (0.0, 1.0, 2.0), "isosceles": (0.7, 0.7, 1.5)}
    s = reconstruct_superbase(RootForm(*forms[family]))
    for _ in range(25):
        yield s, _disguised_near_duplicate(rng, s, 10.0 ** rng.uniform(-12, -1))


@pytest.mark.parametrize("family", [
    "random", "near", "near_1e100", "near_1e-100",
    "square", "hexagonal", "rectangular", "isosceles",
])
def test_alignment_matches_sampled_reference(family):
    # the reference is an upper bound on the true minimum: the closed form
    # may undercut it a little, never exceed it beyond rounding
    rng = make_rng(sum(map(ord, family)))
    for s, t in _alignment_pairs(family, rng):
        scale = max(w.norm() for w in (*s.vectors(), *t.vectors()))
        for reflect in (True, False):
            exact = superbase_distance_linf(s, t, allow_reflection=reflect)
            ref = oracle_superbase_distance_linf(s, t, allow_reflection=reflect)
            assert exact <= ref + 1e-15 * scale, (family, reflect)
            assert ref - exact <= 1e-9 * scale, (family, reflect)


class TestInverseContinuity:
    def test_alignment_distance_shrinks_with_root_form_distance(self):
        rf0 = RootForm(0.5, 1.0, 1.6)
        direction = (0.6, -1.0, 0.8)
        b0 = reconstruct_superbase(rf0)
        dists = []
        delta = 1e-2
        for _ in range(7):
            rf = RootForm(*(r + delta * d for r, d in zip(rf0, direction)))
            assert root_metric(rf0, rf, INF) == pytest.approx(delta, rel=1e-9)
            dists.append(superbase_distance_linf(b0, reconstruct_superbase(rf)))
            delta /= 2.0
        for prev, nxt in zip(dists, dists[1:]):
            assert nxt <= prev * 1.05
        assert dists[-1] < dists[0]
