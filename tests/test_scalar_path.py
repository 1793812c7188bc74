"""oriented_root_form and to_quotient_triangle_oriented keep their former results.

Both run in one frame. tests/helpers.py keeps their former forms, which built
the results through the named-tuple constructors, sorted() and the
LatticeSign class attribute, as references. A result must equal the
reference's in value, in the sign bit of every entry and in type, and the
sign must be the same LatticeSign member; an error must have the same class
and message.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

from helpers import (
    apply_unimodular,
    make_rng,
    random_basis,
    random_unimodular,
    reference_oriented_root_form,
    reference_to_quotient_triangle_oriented,
    reflected_basis,
    rotated_basis,
)
from rootforms import Basis2, LatticeSign, OrientedRootForm, Vec2, oriented_root_form
from rootforms.errors import DegenerateLattice, LatticeError
from rootforms.projection import QTPoint, to_quotient_triangle_oriented

N = 300


def _scaled(b: Basis2, s: float) -> Basis2:
    return Basis2(Vec2(b.v1.x * s, b.v1.y * s), Vec2(b.v2.x * s, b.v2.y * s))


def _near_hexagonal(rng):
    # a few SIGN_TOL from the hexagonal lattice, inside and outside the neutral band
    out = []
    for _ in range(N):
        e1, e2 = rng.uniform(-4e-8, 4e-8, size=2)
        hexagonal = Basis2(Vec2(1.0 + e1, 0.0), Vec2(0.5, 0.5 * math.sqrt(3.0) * (1.0 + e2)))
        out.append(rotated_basis(hexagonal, rng.uniform(0.0, 2.0 * math.pi)))
    return out


def _mirror_pairs(rng):
    out = []
    for _ in range(N // 2):
        b = random_basis(rng)
        out += [b, reflected_basis(b)]
    return out


FAMILIES = {
    "random": (1, lambda rng: [random_basis(rng) for _ in range(N)]),
    "hidden": (2, lambda rng: [apply_unimodular(random_basis(rng), random_unimodular(rng))
                               for _ in range(N)]),
    "near_hexagonal": (3, _near_hexagonal),
    "mirror_pairs": (4, _mirror_pairs),
    "scale_1e150": (5, lambda rng: [_scaled(random_basis(rng), 1e150) for _ in range(N)]),
    "scale_1e-150": (6, lambda rng: [_scaled(random_basis(rng), 1e-150) for _ in range(N)]),
}


def _bases(family):
    seed, make = FAMILIES[family]
    return make(make_rng(seed))


def _same_bits(x, y) -> bool:
    """Equal value (NaN equal to NaN), sign bit and type."""
    return ((x == y or (math.isnan(x) and math.isnan(y)))
            and math.copysign(1.0, x) == math.copysign(1.0, y) and type(x) is type(y))


def _assert_same_tuple(got, want, cls):
    assert type(got) is cls and type(want) is cls
    assert all(_same_bits(g, w) for g, w in zip(got, want)), (got, want)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


@pytest.mark.parametrize("family", FAMILIES)
def test_oriented_root_form_is_bit_identical(family):
    signs = Counter()
    for b in _bases(family):
        got = oriented_root_form(b)
        want = reference_oriented_root_form(b)
        assert type(got) is tuple and len(got) == 2
        _assert_same_tuple(got[0], want[0], OrientedRootForm)
        assert type(got[1]) is LatticeSign and got[1] is want[1]
        signs[got[1]] += 1
    if family == "near_hexagonal":
        assert signs[LatticeSign.NEUTRAL] > 0 and signs[LatticeSign.NEUTRAL] < N, signs
    if family == "mirror_pairs":
        assert signs[LatticeSign.POSITIVE] == signs[LatticeSign.NEGATIVE] > 0, signs


@pytest.mark.parametrize("family", FAMILIES)
def test_quotient_triangle_point_is_bit_identical(family):
    for b in _bases(family):
        orf, _ = oriented_root_form(b)
        r0, r1, r2 = orf
        # the form itself, as a plain tuple, and unsorted triples
        for triple in (orf, (r0, r1, r2), (r1, r2, r0), (r2, r1, r0), (r1, r0, r2)):
            for sign in LatticeSign:
                got = to_quotient_triangle_oriented(triple, sign)
                want = reference_to_quotient_triangle_oriented(triple, sign)
                _assert_same_tuple(got, want, QTPoint)


def test_quotient_triangle_point_errors_and_edge_values_match():
    # every ordered triple of these values, so NaNs, infinities, zeros of
    # either sign and negative entries reach the sort in every position
    values = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.5, -1.0)
    raised = Counter()
    for triple in itertools.product(values, repeat=3):
        for sign in LatticeSign:
            got = _outcome(to_quotient_triangle_oriented, triple, sign)
            want = _outcome(reference_to_quotient_triangle_oriented, triple, sign)
            if isinstance(want, QTPoint):
                _assert_same_tuple(got, want, QTPoint)
            else:
                assert got == want, (triple, sign)
                raised[want[0]] += 1
    assert raised[ValueError] > 0 and raised[DegenerateLattice] > 0, raised


def test_oriented_root_form_errors_match():
    # bases that entry accepts near the underflow, where the kernel raises
    rng = make_rng(7)
    raised = Counter()
    for e in range(-165, -154):
        for _ in range(60):
            try:
                b = _scaled(random_basis(rng, max_cond=1e6), 10.0 ** e)
            except LatticeError:
                continue
            got = _outcome(oriented_root_form, b)
            want = _outcome(reference_oriented_root_form, b)
            if isinstance(want, tuple) and isinstance(want[0], OrientedRootForm):
                _assert_same_tuple(got[0], want[0], OrientedRootForm)
                assert got[1] is want[1]
            else:
                assert got == want, b
                raised[want[0]] += 1
    assert raised[DegenerateLattice] > 0 and raised[LatticeError] > 0, raised
    # a plain pair of pairs is not a Basis2, as before
    pair = ((1.0, 0.0), (0.0, 1.0))
    assert _outcome(oriented_root_form, pair) == _outcome(reference_oriented_root_form, pair)
