"""The continuity theorem as a standing oracle, singular lattices included.

For two obtuse superbases whose vectors differ by at most delta, all of length
at most l, RM_q of their root forms is at most continuity_bound(l, delta, q).
Acceptance criterion 6 checks this on generic superbases only; these tests add
the singular families, where the obtuse superbase switches, perturbations that
leave the obtuse cone, and pairs of unrelated lattices. Each draw is seeded.

Rounding margin: the bound is compared with MARGIN * l added. The root
products, the metric and the bound each carry a relative rounding error of a
few ulps of l, far below 1e-12 l; the smallest bound drawn, at delta = 1e-9,
is above 1e-5 l.
"""

import math

import pytest

from helpers import make_rng, perturbed_superbase, random_basis, random_obtuse_superbase
from rootforms import (
    ObtuseSuperbase,
    Vec2,
    conorms,
    continuity_bound,
    reduce_to_obtuse,
    root_form,
    root_metric,
    superbase_distance_linf,
    superbase_from_basis,
)

MARGIN = 1e-12
ORDERS = (1.0, 2.0, math.inf)
DELTAS = tuple(10.0 ** -e for e in range(2, 10))
FAMILIES = ("rectangle", "square", "hexagonal", "centred_rectangular", "random")


def _singular_superbase(family, rng):
    """An obtuse superbase (-(v1 + v2), v1, v2) of the family, turned at random."""
    a, b = rng.uniform(0.5, 2.0, 2)
    if family == "random":
        return random_obtuse_superbase(rng)
    if family in ("rectangle", "square"):
        v1, v2 = Vec2(a, 0.0), Vec2(0.0, a if family == "square" else b)
    else:  # |v1| = |v2| at 120 degrees, or at a random angle between 90 and 120
        t = 2.0 * math.pi / 3.0 if family == "hexagonal" else rng.uniform(0.51, 0.66) * math.pi
        v1, v2 = Vec2(a, 0.0), Vec2(a * math.cos(t), a * math.sin(t))
    turn = rng.uniform(0.0, 2.0 * math.pi)
    v1, v2 = v1.rotated(turn), v2.rotated(turn)
    return ObtuseSuperbase(-(v1 + v2), v1, v2)


def _longest(*superbases):
    return max(v.norm() for s in superbases for v in s.vectors())


def _assert_bounded(rf1, rf2, l, delta):
    for q in ORDERS:
        assert root_metric(rf1, rf2, q) <= continuity_bound(l, delta, q) + MARGIN * l, (rf1, rf2, q)


@pytest.mark.parametrize("family", FAMILIES)
def test_perturbations_inside_the_obtuse_cone(family):
    # (a): delta is the largest vector change, and both superbases are obtuse
    rng = make_rng(9700 + FAMILIES.index(family))
    inside = 0
    for _ in range(120):
        s = _singular_superbase(family, rng)
        rf = root_form(s)
        for delta in DELTAS:
            s2, actual = perturbed_superbase(rng, s, delta)
            if min(conorms(s2)) < 0.0:
                continue
            _assert_bounded(rf, root_form(reduce_to_obtuse(s2)), _longest(s, s2), actual)
            inside += 1
    assert inside >= 400


@pytest.mark.parametrize("family", FAMILIES)
def test_any_perturbation_against_the_alignment_distance(family):
    # (b): the perturbed superbase may leave the cone; delta is then the alignment
    # distance between the two reduced superbases, which the theorem needs
    rng = make_rng(9710 + FAMILIES.index(family))
    left = 0
    for _ in range(120):
        s = _singular_superbase(family, rng)
        rf = root_form(s)
        for delta in DELTAS:
            s2, _ = perturbed_superbase(rng, s, delta)
            left += min(conorms(s2)) < 0.0
            o2 = reduce_to_obtuse(s2)
            _assert_bounded(rf, root_form(o2), _longest(s, o2), superbase_distance_linf(s, o2))
    if family in ("rectangle", "square"):
        assert left >= 300  # about half of them leave the cone at p12 = 0


def test_any_two_lattices():
    # (c): no perturbation at all, which cross-checks kernel, metric and alignment
    rng = make_rng(9720)
    for _ in range(3000):
        o1, o2 = (reduce_to_obtuse(superbase_from_basis(random_basis(rng))) for _ in range(2))
        _assert_bounded(root_form(o1), root_form(o2), _longest(o1, o2),
                        superbase_distance_linf(o1, o2))
