"""Property tests of the reduction, with hypothesis pinned to one seed.

A random basis is rotated and moved by a random unimodular matrix. The float
root form of the moved basis must stay within a kappa bound of the exact
rational reduction of the same floats, and within the sum of such bounds of
the root form of the basis it came from; ``reduce_to_obtuse`` must return an
obtuse superbase of the same lattice.

The bound is on squared root products, i.e. conorms, not on the products:
a conorm error e moves a small root product r by up to e / r, or sqrt(e)
when r is near zero, which no bound linear in kappa * max r covers.
``test_reduction_kernel`` holds the seeded families, whose products stay
clear of that effect, to the tighter bound on the products themselves.

The second half checks the invariants on drawn root-product triples:
``reconstruct_superbase`` round-trips through ``oriented_root_form`` with
its sign, ``root_metric`` and ``root_metric_oriented`` satisfy the metric
axioms, and a quotient-triangle point is its root form divided by the
entry sum. Every tolerance is a few ulps of the triple's own scale.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from helpers import (
    ULP,
    apply_unimodular,
    condition_number,
    exact_oriented_roots,
    exact_sign_outside_band,
    rotated_basis,
)
from rootforms import (
    Basis2,
    DegenerateBasis,
    DegenerateLattice,
    LatticeSign,
    ObtuseSuperbase,
    RootForm,
    Vec2,
    oriented_root_form,
    reconstruct_superbase,
    reduce_to_obtuse,
    root_metric,
    root_metric_oriented,
    superbase_from_basis,
    to_quotient_triangle,
    to_quotient_triangle_oriented,
)
from rootforms.lattice import NEG_TOL, conorms, vonorms


def _conorm_slack(exact, kappa: float) -> float:
    """Allowed |got^2 - want^2| for the root products of a basis."""
    return 8.0 * ULP * kappa * max(exact) ** 2


def _root_error(exact, slack: float) -> float:
    """Largest move of a root product that a conorm error of slack allows."""
    a = min(exact)
    return min(math.sqrt(slack), slack / a) if a > 0.0 else math.sqrt(slack)


PINNED = settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)

coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
shear = st.tuples(st.integers(-40, 40), st.booleans(), st.booleans())


@st.composite
def moved_bases(draw):
    """(original basis, the same lattice rotated and in another basis)."""
    x1, y1, x2, y2 = (draw(coordinate) for _ in range(4))
    try:
        b = Basis2(Vec2(x1, y1), Vec2(x2, y2))
    except DegenerateBasis:
        assume(False)
    assume(condition_number(b) <= 1e3)
    m = np.eye(2, dtype=np.int64)
    for k, lower, swap in draw(st.lists(shear, min_size=1, max_size=4)):
        step = np.array([[1, 0], [k, 1]] if lower else [[1, k], [0, 1]], dtype=np.int64)
        m = m @ step
        if swap:
            m = m[::-1]
    angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    # entry validation rejects kappa near 1 / DEG_TOL = 1e12 as degenerate
    try:
        moved = rotated_basis(apply_unimodular(b, m), angle)
    except DegenerateBasis:
        assume(False)
    assume(condition_number(moved) <= 1e10)
    return b, moved


@seed(20261018)
@PINNED
@given(moved_bases())
def test_moved_basis_keeps_root_form(pair):
    b, moved = pair
    orf, sign = oriented_root_form(moved)
    exact = exact_oriented_roots(moved)
    slack = _conorm_slack(exact, condition_number(moved))
    for got, want in zip(sorted(orf), sorted(exact)):
        assert abs(got * got - want * want) <= slack
    err = _root_error(exact, slack)
    exact_sign = exact_sign_outside_band(exact, err)
    if exact_sign is not None:
        assert sign is exact_sign
        if sign is not LatticeSign.NEUTRAL:
            assert all(abs(g - w) <= err for g, w in zip(orf, exact))
    original = sorted(oriented_root_form(b)[0])
    slack += _conorm_slack(exact_oriented_roots(b), condition_number(b))
    # the rotation rounds the coordinates, which moves the lattice itself
    big = max(exact)
    slack += 8.0 * ULP * condition_number(moved) * big * big
    for got, want in zip(sorted(orf), original):
        assert abs(got * got - want * want) <= slack


@seed(20261018)
@PINNED
@given(moved_bases())
def test_reduction_returns_obtuse_superbase_of_same_lattice(pair):
    _, moved = pair
    obt = reduce_to_obtuse(superbase_from_basis(moved))
    assert ObtuseSuperbase(*obt) == obt  # the checks reduce_to_obtuse skips all pass
    assert min(conorms(obt)) >= -NEG_TOL * max(vonorms(obt))
    a_in = np.array([[moved.v1.x, moved.v1.y], [moved.v2.x, moved.v2.y]])
    a_out = np.array([[obt.v1.x, obt.v1.y], [obt.v2.x, obt.v2.y]])
    m = a_out @ np.linalg.inv(a_in)
    # the rows of m are integers up to rounding that grows with kappa; where
    # that rounding could reach 1/2 the integers cannot be told apart
    tol = 100.0 * ULP * condition_number(moved) * (1.0 + np.abs(m).max())
    assume(tol < 0.1)
    assert np.abs(m - np.rint(m)).max() <= tol
    assert abs(round(np.linalg.det(np.rint(m)))) == 1


share = st.floats(min_value=0.0, max_value=1.0)
triples = st.tuples(share, share, share)
exponent = st.integers(min_value=-100, max_value=100)
chiral = st.sampled_from([LatticeSign.POSITIVE, LatticeSign.NEGATIVE])


def _scaled_triple(parts, e):
    return tuple(sorted(p * 10.0 ** e for p in parts))


@seed(20261018)
@PINNED
@given(triples, exponent, chiral)
def test_reconstruction_round_trips_with_its_sign(parts, e, sign):
    lo, mid, hi = _scaled_triple(parts, e)
    # the rebuilt basis must pass entry, whose determinant test needs about
    # mid > 1.6e-12 * hi, and the squares must stay clear of underflow
    assume(hi >= 1e-150 and mid >= 1e-11 * hi)
    sb = reconstruct_superbase(RootForm(lo, mid, hi), sign)
    orf, got_sign = oriented_root_form(Basis2(sb.v1, sb.v2))
    want = (lo, mid, hi) if sign is LatticeSign.POSITIVE else (lo, hi, mid)
    slack = 16.0 * ULP * hi * hi  # on squared products, i.e. conorms
    for got, w in zip(sorted(orf), (lo, mid, hi)):
        assert abs(got * got - w * w) <= slack
    exact_sign = exact_sign_outside_band(want, _root_error(want, slack))
    if exact_sign is not None:
        assert got_sign is exact_sign
        if exact_sign is not LatticeSign.NEUTRAL:
            assert got_sign is sign
            for got, w in zip(orf, want):
                assert abs(got * got - w * w) <= slack


orders = st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf])


@seed(20261018)
@PINNED
@given(triples, triples, triples, exponent, orders)
def test_root_metrics_satisfy_the_metric_axioms(a, b, c, e, q):
    f = 10.0 ** e
    a, b, c = ([p * f for p in t] for t in (a, b, c))
    tol = 16.0 * ULP * max(*a, *b, *c)
    for dist in (root_metric, root_metric_oriented):
        assert dist(a, a, q) == 0.0
        assert dist(a, b, q) == dist(b, a, q) >= 0.0
        assert dist(a, c, q) <= dist(a, b, q) + dist(b, c, q) + tol
        # a cyclic rotation of one argument is the same oriented lattice
        assert dist(b[1:] + b[:1], a, q) == dist(b, a, q)
    # relabelling any two entries is the mirror image, which RM_q ignores
    assert root_metric([a[1], a[0], a[2]], b, q) == root_metric(a, b, q)
    assert root_metric(a, b, q) <= root_metric_oriented(a, b, q) + tol


@seed(20261018)
@PINNED
@given(triples, exponent, st.floats(0.5, 2.0), st.integers(-60, 60),
       st.sampled_from(list(LatticeSign)))
def test_quotient_triangle_is_the_root_form_up_to_scale(parts, e, factor, k, sign):
    triple = _scaled_triple(parts, e)
    if triple[1] == 0.0:  # the two smallest underflowed, which RootForm refuses when built
        with pytest.raises(DegenerateLattice, match="^two root products vanish$"):
            RootForm(*triple)
    assume(triple[1] >= 1e-290)  # clear of subnormals, which any scaling rounds
    rf = RootForm(*triple)
    pt = to_quotient_triangle(rf)
    total = sum(rf)
    back = (pt.y, 0.5 * (1.0 - pt.y - 2.0 * pt.x), 0.5 * (1.0 - pt.y + 2.0 * pt.x))
    for got, want in zip(back, rf):
        assert abs(got - want / total) <= 8.0 * ULP
    # scaling by a power of two is exact while no entry or share is
    # subnormal; any other scale moves the point a few ulps
    scaled = [math.ldexp(r, k) for r in rf]
    if all(r == 0.0 or min(r, r2, r / total) >= sys.float_info.min for r, r2 in zip(rf, scaled)):
        assert to_quotient_triangle(RootForm(*scaled)) == pt
    other = to_quotient_triangle(RootForm(*(r * factor for r in rf)))
    assert abs(other.x - pt.x) <= 8.0 * ULP and abs(other.y - pt.y) <= 8.0 * ULP
    oriented = rf if sign is not LatticeSign.NEGATIVE else (rf.r12, rf.r02, rf.r01)
    signed = to_quotient_triangle_oriented(oriented, sign)
    assert (signed.x, signed.y) == (pt.x, pt.y)
    assert signed.signed_x == (-pt.x if sign is LatticeSign.NEGATIVE else pt.x)
