"""Scale-free triangle coordinates of root forms, and the inverse map.

A root form (r12, r01, r02) divided by its entry sum gives barycentric
coordinates in the full triangle; the sorted triples form the quotient
triangle parameterised by x = (b02 - b01) / 2 in [0, 1/2] and y = b12 in
[0, 1/3]. Mirror images of chiral lattices carry signed_x = -x.

The inverse map rebuilds the canonical obtuse superbase: v1 on the positive
x axis, v2 at the obtuse angle arccos(-r12^2 / (|v1| |v2|)), counterclockwise
for positive (or neutral) lattices and clockwise for negative ones.

QTPoint, like the triples, is an immutable named tuple that checks
signed_x = +-x when constructed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateLattice
from .lattice import (_NEGATIVE, LatticeSign, ObtuseSuperbase, OrientedRootForm, RootForm, Vec2,
                      check_basis)


class BarycentricTriple(NamedTuple):
    """Root products scaled to unit sum."""

    b12: float
    b01: float
    b02: float


class QTPoint(NamedTuple("QTPoint", [("x", float), ("y", float), ("signed_x", float)])):
    """Quotient-triangle coordinates; signed_x is negative for mirror images."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, x: float, y: float, signed_x: float):
        if abs(signed_x) != x:
            raise ValueError("signed_x must be +-x")
        return tuple.__new__(cls, (x, y, signed_x))


def _shares(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Each entry divided by the entry sum, which must be positive; entries finite."""
    total = a + b + c
    if not 0.0 < total < math.inf:
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise ValueError(f"non-finite root product in {(float(a), float(b), float(c))}")
        if total <= 0.0:
            raise DegenerateLattice("root products sum to zero")
        a, b, c = 0.25 * a, 0.25 * b, 0.25 * c  # the sum overflowed; x 1/4 keeps the shares' bits
        total = a + b + c
    return a / total, b / total, c / total


def to_full_triangle(rf: RootForm) -> BarycentricTriple:
    """Normalise a root form by its entry sum."""
    return BarycentricTriple(*_shares(*rf))


def qt_coords(r12: float, r01: float, r02: float) -> tuple[float, float]:
    """Quotient-triangle (x, y) of an ascending root-product triple, on floats."""
    total = r12 + r01 + r02
    if 0.0 < total < math.inf:  # _shares' own first case, inline
        b12, b01, b02 = r12 / total, r01 / total, r02 / total
    else:
        b12, b01, b02 = _shares(r12, r01, r02)
    # b12 is the smallest of three shares summing to 1, so at most 1/3;
    # rounding can leave it one ulp above, outside the triangle
    return 0.5 * (b02 - b01), min(b12, 1.0 / 3.0)


def to_quotient_triangle(rf: RootForm) -> QTPoint:
    """Quotient-triangle point of a sorted root form."""
    x, y = qt_coords(*rf)
    return QTPoint(x, y, x)


def to_quotient_triangle_oriented(orf: OrientedRootForm, sign: LatticeSign) -> QTPoint:
    """Quotient-triangle point with signed_x = -x for negative lattices."""
    a, b, c = orf
    if a > b: a, b = b, a  # a three-comparison swap network sorts as sorted() does
    if b > c: b, c = c, b
    if a > b: a, b = b, a
    x, y = qt_coords(a, b, c)  # c >= b, so x >= 0 and signed_x = +-x holds unchecked
    return tuple.__new__(QTPoint, (x, y, -x if sign is _NEGATIVE else x))


def reconstruct_superbase(
    rf: RootForm, sign: LatticeSign = LatticeSign.POSITIVE
) -> ObtuseSuperbase:
    """Canonical obtuse superbase realising a root form.

    The conorms of the result are the squared root products up to rounding,
    so the root form round-trips. Passing LatticeSign.NEGATIVE places v2
    clockwise, producing the mirror-image representative. RootForm checks rf
    (any other triple is made one), so |cos_a| <= 1/2; check_basis checks the
    basis once, overflow included. The superbase sums to zero and is obtuse by
    construction, so it is built unchecked.
    """
    r12, r01, r02 = rf if isinstance(rf, RootForm) else RootForm(*rf)
    len1 = math.hypot(r12, r01)
    len2 = math.hypot(r12, r02)
    cos_a = -(r12 / len1) * (r12 / len2)  # len1 * len2 underflows below about 1e-154
    sin_a = math.sqrt(1.0 - cos_a * cos_a)
    x2, y2 = len2 * cos_a, len2 * (-sin_a if sign is _NEGATIVE else sin_a)
    check_basis(len1, 0.0, x2, y2)  # so y2 != 0, and v0 = -(v1 + v2) is (-(len1 + x2), -y2)
    v0 = tuple.__new__(Vec2, (-(len1 + x2), -y2))
    v1, v2 = tuple.__new__(Vec2, (len1, 0.0)), tuple.__new__(Vec2, (x2, y2))
    return tuple.__new__(ObtuseSuperbase, (v0, v1, v2, 0))
