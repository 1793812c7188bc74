"""oriented_root_form, to_quotient_triangle_oriented and reconstruct_superbase
keep their former results.

The first two run in one frame; reconstruct_superbase checks its basis once
and builds its result unchecked. tests/helpers.py keeps their former forms,
which built the results through the named-tuple constructors, sorted() and
the LatticeSign class attribute, as references. A result must equal the
reference's in value, in the sign bit of every entry and in type, and the
sign must be the same LatticeSign member; an error must have the same class
and message, except that a basis length which overflows now fails in
check_basis, where the reference failed in Vec2. reconstruct_superbase is
compared on the triples RootForm accepts: it refuses the others when built.
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
    reference_reconstruct_superbase,
    reference_to_quotient_triangle_oriented,
    reflected_basis,
    rotated_basis,
)
from rootforms import (Basis2, LatticeSign, ObtuseSuperbase, OrientedRootForm, RootForm, Vec2,
                       oriented_root_form, reconstruct_superbase)
from rootforms.errors import DegenerateBasis, DegenerateLattice, LatticeError
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


def _signed_magnitudes(rng, size):
    """Magnitudes log-uniform in [1e-320, 1e308], each with a random sign."""
    return rng.choice((-1.0, 1.0), size=size) * 10.0 ** rng.uniform(-320.0, 308.0, size=size)


def _triples(rng):
    """Triples at independent scales, at one common scale, with a zero first
    entry, and with NaN, inf, zeros and the range's ends in every position,
    most of them with random signs and order; then each of them sorted by
    magnitude, which makes a root form of every finite one."""
    out = [tuple(map(float, _signed_magnitudes(rng, 3))) for _ in range(N)]
    for scale in _signed_magnitudes(rng, N):
        out.append(tuple(map(float, scale * rng.uniform(0.05, 3.0, size=3))))
    for r01, r02 in zip(_signed_magnitudes(rng, N), _signed_magnitudes(rng, N)):
        out.append((0.0, float(r01), float(r02)))
    for scale in 10.0 ** rng.uniform(-320.0, 308.0, size=N):
        out.append((-0.0, *sorted(map(float, scale * rng.uniform(0.05, 3.0, size=2)))))
    values = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -2.5, 1e-320, 1e308)
    out += itertools.product(values, repeat=3)
    out.append((1e308, 1.5e308, 1.7e308))  # finite, but hypot(1e308, 1.7e308) is not
    return out + [tuple(sorted(map(abs, t))) for t in out]


def _is_root_form(t) -> bool:
    """The root-form rule, restated: finite, 0 <= r12 <= r01 <= r02 and r01 > 0."""
    return all(map(math.isfinite, t)) and 0.0 <= t[0] <= t[1] <= t[2] and 0.0 < t[1]


OVERFLOW = (LatticeError, "coordinates overflow: the determinant or a squared length is not finite")


def test_reconstruct_superbase_is_bit_identical():
    # RootForm refuses, when built, every triple that breaks the rule; the
    # reference, which took any triple, runs on the ones it accepts
    outcomes = Counter()
    for triple in _triples(make_rng(8)):
        if not _is_root_form(triple):
            refused = _outcome(RootForm, *triple)
            assert type(refused) is tuple and refused[0] in (ValueError, DegenerateLattice), triple
            outcomes["refused", refused[0]] += 1
            continue
        rf = RootForm(*triple)
        for sign in LatticeSign:
            got = _outcome(reconstruct_superbase, rf, sign)
            want = _outcome(reference_reconstruct_superbase, rf, sign)
            if isinstance(want, ObtuseSuperbase):
                assert type(got) is ObtuseSuperbase, (rf, sign, got)
                for g, w in zip(got.vectors(), want.vectors()):
                    _assert_same_tuple(g, w, Vec2)
                assert type(got.reduction_steps) is int and got.reduction_steps == 0
                outcomes["built"] += 1
            elif want[1].startswith("non-finite vector"):
                # a length that overflows fails in check_basis, not in Vec2
                assert got == OVERFLOW, (rf, sign)
                outcomes["overflowing length"] += 1
            else:
                assert got == want, (rf, sign)
                outcomes[want[0]] += 1
    # every error the construction can raise, and results at both ends of the range
    assert all(outcomes[k] > 0 for k in (
        ("refused", ValueError), ("refused", DegenerateLattice), "built", "overflowing length",
        LatticeError, DegenerateBasis)), outcomes
