"""Root metrics, superbase alignment distance, continuity bounds."""

import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from helpers import (
    _reference_aligned_sq,
    make_rng,
    oracle_superbase_distance_linf,
    perturbed_superbase,
    random_obtuse_superbase,
    random_oriented_form,
    random_root_form,
    reference_check_order,
    reference_root_metric,
    reference_root_metric_oriented,
    reference_superbase_distance_linf,
)
from rootforms import (
    LatticeError,
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
from rootforms.metrics import _aligned_sq

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

    @pytest.mark.parametrize("bad", [(math.nan, 1.0, 2.0), (1.0, -5.0, 2.0), (1.0, 2.0, INF)])
    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    @pytest.mark.parametrize("metric", [root_metric, root_metric_oriented])
    def test_invalid_entries_rejected(self, metric, bad, q):
        for a, b in ((bad, (1.0, 2.0, 3.0)), ((1.0, 2.0, 3.0), bad)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                metric(a, b, q)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("q", [2.0, 3.0, 2.5])
    @pytest.mark.parametrize("metric", [root_metric, root_metric_oriented])
    def test_no_over_or_underflow_at_extreme_scales(self, metric, q, scale):
        # the powers of the differences leave the float range at these scales,
        # the distance 2^(1/q) * scale does not
        a, b = (0.0, scale, scale), (0.0, 2 * scale, 2 * scale)
        assert metric(a, b, q) == pytest.approx(2 ** (1 / q) * scale, rel=1e-14, abs=0.0)
        assert metric(b, a, q) == metric(a, b, q)
        # a distance past the float range is inf, not an OverflowError
        assert metric((0.0, 1.7e308, 1.7e308), (0.0, 1.0, 1.0), q) == INF


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


def _same_bits(x, y):
    """Equal value, sign of zero and type."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y) and type(x) is type(y)


def _metric_pairs(rng, n):
    """Seeded triple pairs at scales 1e-300 to 1e+300, with zero and tied
    entries, permuted copies, -0.0 and numpy.float64 entries mixed in."""
    for i in range(n):
        sa, sb = 10.0 ** rng.uniform(-300, 300, 2)
        if i % 2:
            sb = sa  # same scale, so the differences are not all one entry
        a, b = list(rng.uniform(0.0, 1.0, 3) * sa), list(rng.uniform(0.0, 1.0, 3) * sb)
        kind = i % 8
        if kind == 1:
            a[rng.integers(3)] = 0.0
            b[rng.integers(3)] = -0.0
        elif kind == 2:
            a[1] = a[2]
            b[0] = b[1] = b[2]
        elif kind == 3:
            b = [a[j] for j in rng.permutation(3)]
        elif kind == 4:
            b = list(a)
            b[rng.integers(3)] = a[rng.integers(3)]
        elif kind == 5:
            a = [0.0, 0.0, 0.0]
        elif kind == 6:
            a = [np.float64(x) for x in a]
        elif kind == 7:
            a, b = np.array(a), np.array(b)
        yield a, b


METRICS = [(root_metric, reference_root_metric),
           (root_metric_oriented, reference_root_metric_oriented)]


class TestOneFrameRootMetrics:
    """The one-frame root metrics return the bits of the former sorted()/_lq form."""

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, INF])
    @pytest.mark.parametrize("metric,reference", METRICS, ids=["plain", "oriented"])
    def test_bit_identical_to_the_sorted_lq_form(self, metric, reference, q):
        for a, b in _metric_pairs(make_rng(20261019), 3000):
            for x, y in ((a, b), (b, a)):
                got, want = metric(x, y, q), reference(x, y, q)
                assert _same_bits(got, want), (x, y, q, got, want)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, INF])
    @pytest.mark.parametrize("metric", [root_metric, root_metric_oriented])
    def test_symmetry_is_bit_exact(self, metric, q):
        for a, b in _metric_pairs(make_rng(20261020), 3000):
            assert _same_bits(metric(a, b, q), metric(b, a, q)), (a, b, q)

    # a RootForm cannot hold a bad triple (its constructor refuses it), so the
    # bad triple reaches the metric's own check as a plain tuple next to one
    @pytest.mark.parametrize("good_as, bad_as", [(list, list), (tuple, tuple),
                                                 (np.array, np.array), (RootForm._make, tuple)],
                             ids=["list", "tuple", "ndarray", "RootForm"])
    @pytest.mark.parametrize("metric,reference", METRICS, ids=["plain", "oriented"])
    def test_entry_errors_keep_their_message(self, metric, reference, good_as, bad_as):
        good = (1.0, 2.0, 3.0)
        for bad in ((math.nan, 1.0, 2.0), (1.0, -5.0, 2.0), (1.0, 2.0, INF), (-0.5, INF, math.nan)):
            for a, b in ((bad_as(bad), good_as(good)), (good_as(good), bad_as(bad))):
                assert _raised(metric, a, b, 2.0) == _raised(reference, a, b, 2.0)
        # the oriented metric shows a b given as an iterator as the tuple it read
        want = _raised(reference_root_metric_oriented, good, iter((1.0, math.nan, 2.0)))
        assert _raised(root_metric_oriented, good, iter((1.0, math.nan, 2.0))) == want
        assert want[1].endswith("got (1.0, 2.0, 3.0) and (1.0, nan, 2.0)")

    def test_draws_reach_every_case(self):
        pairs = list(_metric_pairs(make_rng(20261019), 3000))
        entries = [v for a, b in pairs for v in (*a, *b)]
        assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in entries)
        assert any(type(v) is np.float64 for v in entries)
        assert any(len(set(a)) < 3 for a, _ in pairs)
        assert min(v for v in entries if v > 0.0) < 1e-290
        assert max(entries) > 1e290


# Orders the former _check_order accepted, in every type float() takes.
ACCEPTED_ORDERS = [1, 2, 3, True, 1.0, 2.0, 1.5, INF, np.int64(2), np.float64(2.0),
                   np.float64(1.5), np.float64(INF), np.float32(2.5), "2", " inf ",
                   "1e0", "Infinity", "3.0", Fraction(3, 2), Decimal("2.5")]
REJECTED_ORDERS = [math.nan, np.float64(math.nan), "nan", 0.999, 0, 0.0, -0.0, -1, False,
                   -INF, "-inf", np.float64(0.5), Fraction(1, 2)]
NOT_ORDERS = ["two", "", None, (2.0,), [2.0], "2,0"]


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestOrderCheck:
    """The inline order check keeps the contract of the former _check_order."""

    A, B = (0.3, 1.1, 2.2), (0.2, 1.4, 1.9)

    @pytest.mark.parametrize("q", ACCEPTED_ORDERS, ids=repr)
    @pytest.mark.parametrize("metric,reference", METRICS, ids=["plain", "oriented"])
    def test_accepted_orders_give_the_former_result(self, metric, reference, q):
        assert _same_bits(metric(self.A, self.B, q), reference(self.A, self.B, q))

    @pytest.mark.parametrize("q", REJECTED_ORDERS + NOT_ORDERS, ids=repr)
    @pytest.mark.parametrize("metric,reference", METRICS, ids=["plain", "oriented"])
    def test_rejected_orders_raise_the_former_error(self, metric, reference, q):
        want = _raised(reference_check_order, q)
        assert _raised(metric, self.A, self.B, q) == want
        # the order is checked before the entries
        assert _raised(metric, (math.nan, 1.0, 2.0), self.B, q) == want

    @pytest.mark.parametrize("q", ACCEPTED_ORDERS, ids=repr)
    def test_continuity_bound_accepts_the_same_orders(self, q):
        want = continuity_bound(2.0, 0.01, reference_check_order(q))
        assert _same_bits(continuity_bound(2.0, 0.01, q), want)

    @pytest.mark.parametrize("q", REJECTED_ORDERS + NOT_ORDERS, ids=repr)
    def test_continuity_bound_rejects_the_same_orders(self, q):
        assert _raised(continuity_bound, 2.0, 0.01, q) == _raised(reference_check_order, q)


class TestContinuityBound:
    def test_zero_perturbation(self):
        for q in (1.0, 2.0, INF):
            assert continuity_bound(1.0, 0.0, q) == 0.0

    def test_maxnorm_value(self):
        assert continuity_bound(2.0, 0.01, INF) == pytest.approx(0.2, abs=1e-15)

    def test_q1_value(self):
        assert continuity_bound(1.0, 0.5, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_negative_inputs_rejected(self):
        for l, delta in ((-1.0, 0.1), (math.nan, 1.0), (1.0, math.nan), (INF, 0.1), (1.0, INF)):
            with pytest.raises(ValueError):
                continuity_bound(l, delta, 2.0)


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


ALIGNMENT_FAMILIES = ["random", "near", "near_1e100", "near_1e-100",
                      "square", "hexagonal", "rectangular", "isosceles"]


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


@pytest.mark.parametrize("family", ALIGNMENT_FAMILIES)
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


@pytest.mark.parametrize("family", ALIGNMENT_FAMILIES)
def test_ranked_alignment_is_bit_identical_to_the_full_search(family):
    # ranking the relabellings by their lower bound and stopping early must
    # not move a bit, also where several relabellings tie (the four lattices)
    rng = make_rng(7000 + sum(map(ord, family)))
    for s, t in _alignment_pairs(family, rng):
        for reflect in (True, False):
            got = superbase_distance_linf(s, t, allow_reflection=reflect)
            assert got == reference_superbase_distance_linf(s, t, reflect), (family, reflect)


@pytest.mark.parametrize("family", ALIGNMENT_FAMILIES)
def test_each_relabelling_sweep_is_bit_identical_to_the_reference(family):
    # every relabelling and mirror on its own, so an angle dropped too early in
    # a relabelling that loses cannot hide behind the minimum over all twelve:
    # at bound inf, at the pair's distance (most sweeps lose) and around the
    # relabelling's own minimum (some angles win, some are dropped)
    rng = make_rng(7100 + sum(map(ord, family)))
    for s, t in _alignment_pairs(family, rng):
        v = tuple((w.x, w.y) for w in s.vectors())
        u = tuple((w.x, w.y) for w in t.vectors())
        best = superbase_distance_linf(s, t) ** 2
        for um in (u, tuple((x, -y) for x, y in u)):
            for perm in permutations(um):
                own = _reference_aligned_sq(v, perm, INF)
                assert _aligned_sq(v, perm, INF) == own, (family, perm)
                for bound in (best, 0.5 * own, 1.5 * own, 4.0 * own):
                    want = _reference_aligned_sq(v, perm, bound)
                    assert _aligned_sq(v, perm, bound) == want, (family, perm, bound)


@pytest.mark.parametrize("e", [150, 153, 153.8, 154])
def test_alignment_near_the_float_maximum_matches_the_full_search(e):
    # at e = 154 the six squared lengths sum past the float maximum, so every
    # bound is inf or NaN: all twelve relabellings must stay in play
    k = 10.0 ** (e - 154)
    s = reconstruct_superbase(RootForm(0.3e154 * k, 0.5e154 * k, 0.55e154 * k))
    m = reconstruct_superbase(RootForm(0.3e154 * k, 0.5e154 * k, 0.5505e154 * k),
                              LatticeSign.NEGATIVE)
    v0, v1, v2 = (w.rotated(1.0) for w in m.vectors())
    t = ObtuseSuperbase(v1, v2, v0)
    total = sum(w.norm_sq() for w in (*s.vectors(), *t.vectors()))
    assert (total == INF) is (e == 154)
    for reflect in (True, False):
        got = superbase_distance_linf(s, t, allow_reflection=reflect)
        assert got == reference_superbase_distance_linf(s, t, reflect), reflect
        assert 0.0 < got < INF


def test_alignment_past_the_square_range_raises_a_lattice_error():
    # near 1e154 a misfit's square passes the float maximum though every
    # squared length is finite; ** 2 then raised OverflowError, which is not
    # a ValueError. Each pair gets a finite distance or a LatticeError
    rng = make_rng(1)
    outcomes = Counter()
    for _ in range(500):
        scale = 10.0 ** rng.uniform(153.0, 154.1)
        sign = LatticeSign.NEGATIVE if rng.random() < 0.5 else LatticeSign.POSITIVE
        try:
            s = reconstruct_superbase(RootForm(*sorted(map(float, scale * rng.uniform(
                0.2, 1.0, size=3)))), sign)
            t = _disguised_near_duplicate(rng, s, 10.0 ** rng.uniform(-12, -1) * scale)
        except LatticeError:
            continue  # the pair itself overflows
        for reflect in (True, False):
            try:
                got = superbase_distance_linf(s, t, allow_reflection=reflect)
            except LatticeError as exc:
                assert type(exc) is LatticeError, exc
                assert str(exc) == "the squared misfits overflow; rescale the superbases"
                outcomes["raised"] += 1
            else:
                assert 0.0 <= got < INF, (s, t, reflect)
                outcomes["distance"] += 1
    assert outcomes["raised"] > 0 and outcomes["distance"] > 0, outcomes


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
