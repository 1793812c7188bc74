"""The float reduction against an exact rational reduction.

``helpers.exact_oriented_roots`` reduces the lattice a float basis spans in
``Fraction`` arithmetic. On every seeded basis that passes entry validation,
each root product of ``oriented_root_form`` must lie within
``4 * 2**-52 * kappa * max r*`` of the exact one r*, where kappa is
``helpers.condition_number`` of the input basis, and the sign must equal the
exact sign wherever the exact products are clear of the ``SIGN_TOL`` band by
more than the float error can bridge. The object-based flip-rule reference
``helpers.oracle_reduce_to_obtuse`` is held to the same bound wherever it
stays under its step cap.
"""

import math

import numpy as np
import pytest

from helpers import (
    ULP,
    apply_unimodular,
    condition_number,
    exact_oriented_roots,
    exact_sign_outside_band,
    make_rng,
    oracle_reduce_to_obtuse,
    random_basis,
    random_unimodular,
)
from rootforms import (
    Basis2,
    DegenerateBasis,
    DegenerateLattice,
    IterationLimitExceeded,
    LatticeError,
    LatticeSign,
    Vec2,
    oriented_root_form,
    reduce_to_obtuse,
    superbase_from_basis,
)
from rootforms.lattice import SIGN_TOL, _obtuse_root_products, orient_obtuse


def _scaled(b: Basis2, f: float) -> Basis2:
    # plain floats, as the CLI has them: overflow to inf without numpy warnings
    x1, y1, x2, y2 = (float(c) * f for c in (b.v1.x, b.v1.y, b.v2.x, b.v2.y))
    return Basis2(Vec2(x1, y1), Vec2(x2, y2))


def _random(rng):
    return apply_unimodular(random_basis(rng), random_unimodular(rng, shears=6))


def _sheared(rng):
    # log-uniform shear sizes up to 3,000, past the flip rule's step cap
    k = int(math.exp(rng.uniform(0.0, math.log(3000.0))))
    return apply_unimodular(random_basis(rng), np.array([[1, 0], [k, 1]]))


def _scale(exponent):
    def make(rng):
        return _scaled(_random(rng), 10.0 ** exponent * rng.uniform(0.5, 2.0))
    return make


def _near_collinear(rng):
    # relative determinant around the DEG_TOL threshold of 1e-12
    ang = rng.uniform(0.0, 2.0 * math.pi)
    u = Vec2(math.cos(ang), math.sin(ang))
    t = rng.uniform(-3.0, 3.0)
    eps = 10.0 ** rng.uniform(-13.0, -9.0)
    return Basis2(u, Vec2(t * u.x - eps * u.y, t * u.y + eps * u.x))


def _near_hexagonal(rng):
    def jitter():
        return 10.0 ** rng.uniform(-10.0, -6.0) * rng.choice([-1.0, 1.0])
    a = rng.uniform(0.5, 5.0)
    hexa = Basis2(
        Vec2(a + jitter(), jitter()),
        Vec2(-a / 2.0 + jitter(), a * math.sqrt(3.0) / 2.0 + jitter()),
    )
    return apply_unimodular(hexa, random_unimodular(rng, shears=3))


# name: (generator, bases drawn, least number that must get past entry, the
# one error class entry may raise). At 1e+200 and above the squared lengths
# overflow and Basis2 rejects every basis as such; below about 1e-160 the
# determinant underflows to zero and it rejects every basis as degenerate.
# Those families reach the reduction only once inputs are normalised before
# the determinant is taken.
FAMILIES = {
    "random": (_random, 400, 400, None),
    "sheared": (_sheared, 120, 120, None),
    "scale_1e+150": (_scale(150), 60, 60, None),
    "scale_1e-150": (_scale(-150), 60, 60, None),
    "scale_1e+200": (_scale(200), 60, 0, LatticeError),
    "scale_1e-200": (_scale(-200), 60, 0, DegenerateBasis),
    "scale_1e+300": (_scale(300), 60, 0, LatticeError),
    "scale_1e-300": (_scale(-300), 60, 0, DegenerateBasis),
    "near_collinear": (_near_collinear, 200, 100, DegenerateBasis),
    "near_hexagonal": (_near_hexagonal, 200, 200, None),
}

# Inputs the flip rule could not reduce within MAX_ITER steps.
FORMER_STEP_CAP_BASES = [
    ((1.0, 0.0), (1001.3, 1.0)),
    ((1.0, 0.0), (2500.3, 1.0)),
    ((-0.9832645782179515, 0.1821833395837115), (-1.6715433102885124, 0.3097104776233092)),
]


def _assert_within_kappa_bound(b: Basis2, orf, sign, exact):
    bound = 4.0 * ULP * condition_number(b) * max(exact)
    for got, want in zip(sorted(orf), sorted(exact)):
        assert abs(got - want) <= bound, (b, orf, exact, bound)
    exact_sign = exact_sign_outside_band(exact, bound)
    if exact_sign is not None:
        assert sign is exact_sign, (b, orf, exact)
        if sign is not LatticeSign.NEUTRAL:
            assert all(abs(g - w) <= bound for g, w in zip(orf, exact)), (b, orf, exact)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_matches_object_reduction(family):
    make, count, least, entry_error = FAMILIES[family]
    rng = make_rng(9100 + sorted(FAMILIES).index(family))
    compared = 0
    for _ in range(count):
        try:
            b = make(rng)
            s = superbase_from_basis(b)
        except LatticeError as exc:
            # rejected at entry, before any reduction code runs
            assert type(exc) is entry_error, exc
            continue
        exact = exact_oriented_roots(b)
        _assert_within_kappa_bound(b, *oriented_root_form(b), exact)
        try:
            reference = oracle_reduce_to_obtuse(s)
        except IterationLimitExceeded:
            pass
        else:
            _assert_within_kappa_bound(b, *orient_obtuse(reference), exact)
        compared += 1
    assert compared >= least


@pytest.mark.parametrize("pair", FORMER_STEP_CAP_BASES)
def test_former_step_cap_bases_reduce(pair):
    b = Basis2(Vec2(*pair[0]), Vec2(*pair[1]))
    s = superbase_from_basis(b)
    with pytest.raises(IterationLimitExceeded):
        oracle_reduce_to_obtuse(s)
    obt = reduce_to_obtuse(s)
    assert obt.reduction_steps <= 10
    _assert_within_kappa_bound(b, *oriented_root_form(b), exact_oriented_roots(b))


def test_step_cap_message_matches():
    b = Basis2(Vec2(*FORMER_STEP_CAP_BASES[2][0]), Vec2(*FORMER_STEP_CAP_BASES[2][1]))
    s = superbase_from_basis(b)
    full = reduce_to_obtuse(s)
    assert full.reduction_steps >= 3
    for cap in range(1, full.reduction_steps):
        with pytest.raises(IterationLimitExceeded, match=f"^reduction exceeded {cap} steps$"):
            reduce_to_obtuse(s, max_iter=cap)
    assert reduce_to_obtuse(s, max_iter=full.reduction_steps) == full


def _listed_root_products(x0, y0, x1, y1, x2, y2):
    """Reference for lattice._obtuse_root_products: conorms and roots as lists,
    sorted, and the first minimum found by list.index."""
    c = (-(x1 * x2 + y1 * y2), -(x0 * x1 + y0 * y1), -(x0 * x2 + y0 * y2))
    tol = 1e-10 * max(x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2)
    if min(c) < -tol:
        raise ValueError(f"superbase is not obtuse: conorms {c}")
    if sorted(c)[1] <= tol:
        raise DegenerateLattice(f"two conorms vanish: {c}")
    w = [math.sqrt(p) if p > 0.0 else 0.0 for p in c]
    if x1 * y2 - y1 * x2 < 0.0:
        w[1], w[2] = w[2], w[1]
    lo, mid, hi = sorted(w)
    tol = SIGN_TOL * hi
    if lo <= tol or mid - lo <= tol or hi - mid <= tol:
        return (lo, mid, hi), LatticeSign.NEUTRAL
    k = w.index(lo)
    w = w[k:] + w[:k]
    return tuple(w), LatticeSign.POSITIVE if w[1] < w[2] else LatticeSign.NEGATIVE


def _outcome(fn, v):
    try:
        return fn(*v)
    except ValueError as exc:
        return type(exc), str(exc)


def test_unrolled_root_products_match_the_listed_reference():
    # seeded superbases (v0, v1, v2) of every kind: chiral, near and exact ties
    # (square, hexagonal, rectangular, rhombic), non-obtuse and two-vanishing ones,
    # each in all three cyclic labellings and mirrored; the draws are numpy floats,
    # whose comparisons give numpy bools, as a numpy caller's would
    rng = make_rng(1010)
    h = math.sqrt(3.0) / 2.0
    cells = [((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (-0.5, h)), ((2.0, 0.0), (0.0, 1.0)),
             ((1.0, 0.0), (-0.5, 2.0)), ((1.0, 0.0), (-0.5, h * (1.0 + 1e-9))),
             ((1.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (1.0, 1.0))]
    for _ in range(3000):
        cells.append(tuple(tuple(rng.choice([rng.uniform(-3.0, 3.0), float(rng.integers(-2, 3)),
                                             0.5 * float(rng.integers(-4, 5))]) for _ in range(2))
                           for _ in range(2)))
    seen = set()
    for (x1, y1), (x2, y2) in cells:
        x0, y0 = -(x1 + x2), -(y1 + y2)
        for v in ((x0, y0, x1, y1, x2, y2), (x1, y1, x2, y2, x0, y0), (x2, y2, x0, y0, x1, y1),
                  (x0, -y0, x1, -y1, x2, -y2)):
            expected = _outcome(_listed_root_products, v)
            assert _outcome(_obtuse_root_products, v) == expected, v
            seen.add(expected[0] if isinstance(expected[0], type) else expected[1])
    assert seen == {ValueError, DegenerateLattice, *LatticeSign}


def test_two_vanishing_conorms_message():
    with pytest.raises(DegenerateLattice, match=r"^two conorms vanish: \(-0\.0, 1\.0, -0\.0\)$"):
        _obtuse_root_products(-1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
