"""The float reduction kernel against the object-based reference reduction.

``reduce_to_obtuse`` runs its steps on plain floats; ``helpers`` keeps the
original loop over validated ``Superbase2`` objects. On every seeded basis
both must give equal vectors and step counts, equal oriented root forms and
signs, or the same exception class with the same message.
"""

import math

import numpy as np
import pytest

from helpers import apply_unimodular, make_rng, oracle_reduce_to_obtuse, random_basis, random_unimodular
from rootforms import Basis2, Vec2, oriented_root_form, reduce_to_obtuse, superbase_from_basis
from rootforms.lattice import MAX_ITER, orient_obtuse


def _scaled(b: Basis2, f: float) -> Basis2:
    # plain floats, as the CLI has them: overflow to inf without numpy warnings
    x1, y1, x2, y2 = (float(c) * f for c in (b.v1.x, b.v1.y, b.v2.x, b.v2.y))
    return Basis2(Vec2(x1, y1), Vec2(x2, y2))


def _random(rng):
    return apply_unimodular(random_basis(rng), random_unimodular(rng, shears=6))


def _sheared(rng):
    # log-uniform shear sizes up to 3,000, past the MAX_ITER step cap
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


# name: (generator, bases drawn, least number that must get past entry).
# Below about 1e-160 the determinant underflows to zero and Basis2 rejects
# every basis, so the tiny scales reach the kernel only once inputs are
# normalised before the determinant is taken.
FAMILIES = {
    "random": (_random, 400, 400),
    "sheared": (_sheared, 120, 120),
    "scale_1e+150": (_scale(150), 60, 60),
    "scale_1e-150": (_scale(-150), 60, 60),
    "scale_1e+200": (_scale(200), 60, 30),
    "scale_1e-200": (_scale(-200), 60, 0),
    "scale_1e+300": (_scale(300), 60, 30),
    "scale_1e-300": (_scale(-300), 60, 0),
    "near_collinear": (_near_collinear, 200, 100),
    "near_hexagonal": (_near_hexagonal, 200, 200),
}


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:  # the package's errors and invalid vectors
        return type(exc), str(exc)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_matches_object_reduction(family):
    make, count, least = FAMILIES[family]
    rng = make_rng(9100 + sorted(FAMILIES).index(family))
    compared = 0
    for _ in range(count):
        try:
            b = make(rng)
            s = superbase_from_basis(b)
        except ValueError:
            continue  # rejected at entry, before any reduction code runs
        expected = _outcome(lambda: oracle_reduce_to_obtuse(s))
        got = _outcome(lambda: reduce_to_obtuse(s))
        assert got == expected, (b, got, expected)
        if not isinstance(got, tuple):
            assert got.vectors() == expected.vectors()
            assert got.reduction_steps == expected.reduction_steps
            oriented = _outcome(lambda: orient_obtuse(expected))
        else:
            oriented = expected
        assert _outcome(lambda: oriented_root_form(b)) == oriented, b
        compared += 1
    assert compared >= least


def test_step_cap_message_matches():
    b = Basis2(Vec2(1.0, 0.0), Vec2(2500.3, 1.0))
    s = superbase_from_basis(b)
    expected = _outcome(lambda: oracle_reduce_to_obtuse(s))
    assert expected[1] == f"reduction exceeded {MAX_ITER} steps; input is numerically pathological"
    assert _outcome(lambda: reduce_to_obtuse(s)) == expected
    for cap in (1, 7, 2400):
        assert _outcome(lambda: reduce_to_obtuse(s, max_iter=cap)) == _outcome(
            lambda: oracle_reduce_to_obtuse(s, max_iter=cap)
        )
