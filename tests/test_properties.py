"""Property tests of the reduction, with hypothesis pinned to one seed.

A random basis is rotated and moved by a random unimodular matrix. The float
root form of the moved basis must stay within a kappa bound of the exact
rational reduction of the same floats, and within the sum of such bounds of
the root form of the basis it came from; ``reduce_to_obtuse`` must return an
obtuse superbase of the same lattice.

The bound is on squared root products, i.e. conorms, not on the products:
a conorm error e moves a small root product r by up to e / r, or sqrt(e)
when r is near zero, which no bound linear in kappa * max r covers. And a
superbase whose smallest conorm a^2 lies in the NEG_TOL band is accepted as
obtuse unchanged (its tiny negative conorm clamped to 0), which moves every
conorm by up to 2 a^2. ``test_reduction_kernel`` holds the seeded families,
whose products stay clear of both effects, to the tighter bound on the
products themselves.
"""

import math

import numpy as np
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
    LatticeSign,
    Vec2,
    oriented_root_form,
    reduce_to_obtuse,
    superbase_from_basis,
)
from rootforms.lattice import NEG_TOL, conorms, vonorms


def _conorm_slack(exact, kappa: float) -> float:
    """Allowed |got^2 - want^2| for the root products of a basis."""
    a, _, big = sorted(exact)
    slack = 8.0 * ULP * kappa * big * big
    if a * a <= 2.1 * NEG_TOL * big * big + slack:
        slack += 2.0 * a * a + 2.1 * NEG_TOL * big * big
    return slack


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
    a, _, big = sorted(exact)
    if a * a > 2.1 * NEG_TOL * big * big + slack:
        err = _root_error(exact, slack)
        exact_sign = exact_sign_outside_band(exact, err)
        if exact_sign is not None:
            assert sign is exact_sign
            if sign is not LatticeSign.NEUTRAL:
                assert all(abs(g - w) <= err for g, w in zip(orf, exact))
    original = sorted(oriented_root_form(b)[0])
    slack += _conorm_slack(exact_oriented_roots(b), condition_number(b))
    # the rotation rounds the coordinates, which moves the lattice itself
    slack += 8.0 * ULP * condition_number(moved) * big * big
    for got, want in zip(sorted(orf), original):
        assert abs(got * got - want * want) <= slack


@seed(20261018)
@PINNED
@given(moved_bases())
def test_reduction_returns_obtuse_superbase_of_same_lattice(pair):
    _, moved = pair
    obt = reduce_to_obtuse(superbase_from_basis(moved))
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
