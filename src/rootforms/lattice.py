"""Core 2D lattice machinery: superbases, reduction, conorms and root forms.

Conventions
-----------
- Coordinates are lengths in Angstroms; conorms and vonorms are areas (A^2);
  root products are lengths again (A).
- A superbase is an ordered triple (v0, v1, v2) with v0 + v1 + v2 = 0; the
  generating basis is (v1, v2).
- Conorm triples are always written in the order (p12, p01, p02) where
  p_ij = -v_i . v_j; vonorm triples as (v0^2, v1^2, v2^2).
- An obtuse superbase has all three conorms >= 0, exactly when the kernel built
  it; one a caller builds may have conorms a tolerance below 0, counted as 0.

check_basis alone decides that a basis is degenerate, and two conorms <= 0
that a lattice is; every tolerance scales with the input, none is absolute.

The value types are immutable named tuples, so they also unpack, index and
compare equal to plain tuples of the same values. Vec2, Basis2, Superbase2,
ObtuseSuperbase, RootForm and OrientedRootForm check their arguments when
constructed, also through the named-tuple helpers _make and _replace, and
nothing checks them again: not Vec2 arithmetic, the root forms the kernel
builds, or reduce_to_obtuse and its result.
"""

import math
from enum import Enum
from typing import NamedTuple

from .errors import (
    DegenerateBasis,
    DegenerateLattice,
    LatticeError,
    NegativeConorm,
)

# Relative determinant threshold below which a basis counts as degenerate.
DEG_TOL = 1e-12
# Relative factor for "this conorm is negative" in a superbase a caller builds
# or a vonorm triple, scaled by its max(vonorms): ObtuseSuperbase and
# conorms_from_vonorms test it.
NEG_TOL = 1e-10
# Relative factor for root-product ties (neutral/achiral detection); scaled
# by the largest root product.
SIGN_TOL = 1e-8
# Relative tolerance on |v0 + v1 + v2| when validating a superbase.
SUM_TOL = 1e-9


class Vec2(NamedTuple("Vec2", [("x", float), ("y", float)])):
    """Plane vector (lengths in Angstroms), finite when a caller builds it.

    Only the constructor checks the coordinates: sums, differences,
    negations and rotations are built without a second check. Vectors do
    not order or repeat as tuples do: ``<`` and ``*`` raise TypeError.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace calls it too
    __mul__ = __rmul__ = lambda self, other: NotImplemented

    def __lt__(self, other):  # NotImplemented would let a tuple's reflected order answer
        raise TypeError("Vec2 has no order")
    __le__ = __gt__ = __ge__ = __lt__

    def __new__(cls, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite vector ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return tuple.__new__(Vec2, (self.x + other.x, self.y + other.y))

    def __sub__(self, other: "Vec2") -> "Vec2":
        return tuple.__new__(Vec2, (self.x - other.x, self.y - other.y))

    def __neg__(self) -> "Vec2":
        return tuple.__new__(Vec2, (-self.x, -self.y))

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """z-component of the 3D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def rotated(self, angle: float) -> "Vec2":
        c, s = math.cos(angle), math.sin(angle)
        return tuple.__new__(Vec2, (c * self.x - s * self.y, s * self.x + c * self.y))


class ConormTriple(NamedTuple):
    """Negated pairwise scalar products of a superbase, as (p12, p01, p02)."""

    p12: float
    p01: float
    p02: float


class VonormTriple(NamedTuple):
    """Squared superbase vector lengths, as (v0^2, v1^2, v2^2)."""

    n0: float
    n1: float
    n2: float


class RootForm(NamedTuple("RootForm", [("r12", float), ("r01", float), ("r02", float)])):
    """Ascending triple of root products; complete isometry invariant.

    The constructor checks, without sorting: finite entries, 0 <= r12 <= r01
    <= r02 and r01 > 0 (at most r12 vanishes). root_form_from_values sorts.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, r12: float, r01: float, r02: float):
        if not (0.0 <= r12 <= r01 <= r02 < math.inf and r01 > 0.0):  # False for NaN too
            t = (float(r12), float(r01), float(r02))
            r = sorted(t)  # the first clause of the rule it breaks names the error
            if not all(map(math.isfinite, r)):
                raise ValueError(f"non-finite root product in {t}")
            if r[0] < 0.0:
                raise ValueError(f"negative root product {r[0]:g}")
            if r[1] <= 0.0:
                raise DegenerateLattice("two root products vanish")
            raise ValueError(f"root products {t} are not ascending")
        return tuple.__new__(cls, (r12, r01, r02))


class OrientedRootForm(NamedTuple("OrientedRootForm",
                                  [("first", float), ("second", float), ("third", float)])):
    """Root products canonicalised only up to cyclic rotation.

    The smallest entry comes first; the remaining two keep the cyclic order
    induced by a positively oriented superbase, so mirror-image lattices get
    the last two entries swapped. Neutral lattices are fully sorted.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, first: float, second: float, third: float):
        RootForm(first, *sorted((second, third)))  # RootForm's rule, the first the smallest
        return tuple.__new__(cls, (first, second, third))


class LatticeSign(Enum):
    """Chirality class of a lattice."""

    NEUTRAL = "neutral"
    POSITIVE = "positive"
    NEGATIVE = "negative"


# The members as module globals: a global load, where LatticeSign.X looks up the class
_NEUTRAL, _POSITIVE, _NEGATIVE = LatticeSign.NEUTRAL, LatticeSign.POSITIVE, LatticeSign.NEGATIVE


def check_basis(x1: float, y1: float, x2: float, y2: float) -> None:
    """The one entry check, which Basis2, Superbase2 and the float kernel share.

    The determinant and the squared lengths of v1, v2 and v1 + v2 must be
    finite (LatticeError), and |det| > DEG_TOL * max(|v1|^2, |v2|^2)
    (DegenerateBasis).
    """
    det = x1 * y2 - y1 * x2
    n = max(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2)
    n0 = (x1 + x2) * (x1 + x2) + (y1 + y2) * (y1 + y2)
    if not (abs(det) < math.inf and n < math.inf and n0 < math.inf):  # False for NaN too
        raise LatticeError(
            "coordinates overflow: the determinant or a squared length is not finite"
        )
    if abs(det) <= DEG_TOL * n:
        raise DegenerateBasis(
            f"basis determinant {det:g} below tolerance for scale {math.sqrt(n):g}"
        )


class Basis2(NamedTuple("Basis2", [("v1", Vec2), ("v2", Vec2)])):
    """Two independent plane vectors generating a lattice."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, v1: Vec2, v2: Vec2):
        check_basis(v1.x, v1.y, v2.x, v2.y)
        return tuple.__new__(cls, (v1, v2))

    @property
    def det(self) -> float:
        return self.v1.cross(self.v2)


def _check_superbase(v0: Vec2, v1: Vec2, v2: Vec2) -> None:
    (x0, y0), (x1, y1), (x2, y2) = v0, v1, v2
    check_basis(x1, y1, x2, y2)
    sx, sy = x0 + x1 + x2, y0 + y1 + y2
    if math.hypot(sx, sy) > SUM_TOL * math.sqrt(max(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2)):
        raise ValueError(f"superbase vectors sum to ({sx:g}, {sy:g}), not zero")


class Superbase2(NamedTuple("Superbase2", [("v0", Vec2), ("v1", Vec2), ("v2", Vec2)])):
    """Ordered vector triple (v0, v1, v2) summing to zero."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, v0: Vec2, v1: Vec2, v2: Vec2):
        _check_superbase(v0, v1, v2)
        return tuple.__new__(cls, (v0, v1, v2))

    @property
    def det(self) -> float:
        """Signed area of the cell spanned by (v1, v2)."""
        return self.v1.cross(self.v2)

    def vectors(self) -> tuple[Vec2, Vec2, Vec2]:
        return (self.v0, self.v1, self.v2)


class ObtuseSuperbase(NamedTuple("ObtuseSuperbase", [("v0", Vec2), ("v1", Vec2), ("v2", Vec2),
                                                     ("reduction_steps", int)]), Superbase2):
    """Superbase with all conorms >= 0, exactly when the kernel built it.

    One a caller builds may carry a conorm down to -NEG_TOL * max(vonorms),
    counted as 0; below that it raises NegativeConorm. reduction_steps, the
    fourth field, counts the Lagrange-Gauss passes that produced it: zero
    when (-(v1 + v2), v1, v2) of the input was already obtuse.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, v0: Vec2, v1: Vec2, v2: Vec2, reduction_steps: int = 0):
        _check_superbase(v0, v1, v2)
        (x0, y0), (x1, y1), (x2, y2) = v0, v1, v2
        c = (-(x1 * x2 + y1 * y2), -(x0 * x1 + y0 * y1), -(x0 * x2 + y0 * y2))
        if min(c) < -NEG_TOL * max(x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2):
            raise NegativeConorm(f"superbase is not obtuse: conorms {tuple(map(float, c))}")
        return tuple.__new__(cls, (v0, v1, v2, reduction_steps))


def superbase_from_basis(b: Basis2) -> Superbase2:
    """Extend a basis with v0 = -v1 - v2."""
    return Superbase2(-(b.v1 + b.v2), b.v1, b.v2)


def conorms(s: Superbase2) -> ConormTriple:
    """Negated pairwise scalar products; may be negative for non-obtuse input."""
    return ConormTriple(
        -s.v1.dot(s.v2),
        -s.v0.dot(s.v1),
        -s.v0.dot(s.v2),
    )


def vonorms(s: Superbase2) -> VonormTriple:
    """Squared lengths of the three superbase vectors."""
    return VonormTriple(s.v0.norm_sq(), s.v1.norm_sq(), s.v2.norm_sq())


def vonorms_from_conorms(c: ConormTriple) -> VonormTriple:
    """Linear map (p12, p01, p02) -> (v0^2, v1^2, v2^2)."""
    p12, p01, p02 = c
    return VonormTriple(p01 + p02, p01 + p12, p02 + p12)


def conorms_from_vonorms(n: VonormTriple) -> ConormTriple:
    """Inverse linear map; raises NegativeConorm outside the triangle region.

    The vonorms of a valid superbase obey n0 <= n1 + n2 (and permutations),
    each inequality being one conorm's nonnegativity.
    """
    n0, n1, n2 = n
    c = ConormTriple(
        0.5 * (n1 + n2 - n0),
        0.5 * (n0 + n1 - n2),
        0.5 * (n0 + n2 - n1),
    )
    if min(c) < -NEG_TOL * max(n):
        raise NegativeConorm(
            f"vonorms {tuple(map(float, n))} violate a triangle inequality: "
            f"conorms {tuple(map(float, c))}"
        )
    return c


def lagrange_gauss(x1: float, y1: float, x2: float, y2: float):
    """Lagrange-Gauss reduction of the plane basis ((x1, y1), (x2, y2)) on floats.

    Each pass subtracts the nearest integer multiple of the shorter vector
    from the longer one, then swaps them if the result came out shorter. Each
    swap strictly shrinks the shorter squared length, so the loop ends, after
    O(log(max|v|^2 / |det|)) passes (B. Vallée 1991); check_basis caps the ratio.

    Returns ((x1, y1, x2, y2), (m1, m2), passes): the reduced pair u1, u2 with
    |u1| <= |u2| and |u1 . u2| <= |u1|^2 / 2, the integer rows m1, m2 that
    express u1, u2 in the input pair, and the number of passes made.
    """
    a1, b1, a2, b2 = 1, 0, 0, 1  # u1 = a1 v1 + b1 v2, u2 = a2 v1 + b2 v2
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    if n1 > n2:
        x1, y1, n1, a1, b1, x2, y2, n2, a2, b2 = x2, y2, n2, a2, b2, x1, y1, n1, a1, b1
    passes = 0
    while True:
        if n1 == 0.0:
            raise LatticeError("a squared length underflows to zero; rescale the coordinates")
        passes += 1
        t = round((x1 * x2 + y1 * y2) / n1)
        if t:
            x2, y2, a2, b2 = x2 - t * x1, y2 - t * y1, a2 - t * a1, b2 - t * b1
            n2 = x2 * x2 + y2 * y2
        if n2 >= n1:
            return (x1, y1, x2, y2), ((a1, b1), (a2, b2)), passes
        x1, y1, n1, a1, b1, x2, y2, n2, a2, b2 = x2, y2, n2, a2, b2, x1, y1, n1, a1, b1


def oriented_root_products(x1: float, y1: float, x2: float, y2: float):
    """The float kernel: a basis, checked once by check_basis, to its root form.

    The superbase (-(v1 + v2), v1, v2) is kept, with 0 passes, when no
    conorm is negative; no tolerance applies. Otherwise (v1, v2) is
    Lagrange-Gauss reduced to (u1, u2), u2 is negated when u1 . u2 > 0, and
    the superbase is (-(u1 + u2), u1, u2): with |u1 . u2| <= |u1|^2 / 2 <=
    |u2|^2 / 2 and u1 . u2 <= 0 all three conorms are nonnegative (the 2D
    case of Selling reduction), so the result is exactly obtuse. Past
    check_basis, no tolerance applies but SIGN_TOL.

    Returns ((x0, y0, x1, y1, x2, y2), oriented root products, sign, passes)
    as plain floats, the sign as in oriented_root_form.
    """
    check_basis(x1, y1, x2, y2)
    return _oriented_root_products(x1, y1, x2, y2)


def _oriented_root_products(x1, y1, x2, y2):
    """oriented_root_products of a basis that has passed check_basis."""
    x0, y0 = -(x1 + x2), -(y1 + y2)
    passes = 0
    if not (x1 * x2 + y1 * y2 <= 0.0 and x0 * x1 + y0 * y1 <= 0.0 and x0 * x2 + y0 * y2 <= 0.0):
        (x1, y1, x2, y2), _, passes = lagrange_gauss(x1, y1, x2, y2)
        if x1 * x2 + y1 * y2 > 0.0:
            x2, y2 = -x2, -y2
        x0, y0 = -(x1 + x2), -(y1 + y2)
    w, sign = _obtuse_root_products(x0, y0, x1, y1, x2, y2)
    return (x0, y0, x1, y1, x2, y2), w, sign, passes


def _obtuse_root_products(x0, y0, x1, y1, x2, y2):
    """Oriented root products and sign of the obtuse superbase (v0, v1, v2).

    A conorm <= 0 gives a root product of 0, and two of them raise
    DegenerateLattice. Neutral means the smallest root product, or a gap
    between two, is at most SIGN_TOL times the largest (a vanishing smallest
    one is a rectangular cell, whose obtuse superbases are related by
    reflections).
    """
    p12, p01, p02 = -(x1 * x2 + y1 * y2), -(x0 * x1 + y0 * y1), -(x0 * x2 + y0 * y2)
    a = math.sqrt(p12) if p12 > 0.0 else 0.0
    b = math.sqrt(p01) if p01 > 0.0 else 0.0
    c = math.sqrt(p02) if p02 > 0.0 else 0.0
    if x1 * y2 - y1 * x2 < 0.0:
        b, c = c, b
    # rotate the first minimum to the front; the other two, ordered, give (lo, mid, hi)
    lo, b, c = (a, b, c) if a <= b and a <= c else (b, c, a) if b <= c else (c, a, b)
    mid, hi = (b, c) if b <= c else (c, b)
    if mid == 0.0:  # two vanishing conorms force a vanishing vonorm
        raise DegenerateLattice(f"two conorms vanish: {(float(p12), float(p01), float(p02))}")
    tol = SIGN_TOL * hi
    if lo <= tol or mid - lo <= tol or hi - mid <= tol:
        return (lo, mid, hi), _NEUTRAL
    return (lo, b, c), _POSITIVE if b < c else _NEGATIVE


def reduce_to_obtuse(s: Superbase2) -> ObtuseSuperbase:
    """Obtuse superbase of the same lattice, by oriented_root_products on (v1, v2).

    The result is the superbase the kernel judged, (-(v1 + v2), v1, v2) when
    no pass is made; reduction_steps counts the passes. Superbase2 checked s,
    and the kernel's result is obtuse by construction, so neither is rechecked.
    """
    xy, _, _, steps = _oriented_root_products(*s.v1, *s.v2)
    v0, v1, v2 = (tuple.__new__(Vec2, xy[i:i + 2]) for i in (0, 2, 4))
    return tuple.__new__(ObtuseSuperbase, (v0, v1, v2, steps))


def root_form(s: ObtuseSuperbase) -> RootForm:
    """Ascending root products of an obtuse superbase, a root form by construction."""
    return tuple.__new__(RootForm, sorted(orient_obtuse(s)[0]))


def root_form_from_values(a: float, b: float, c: float) -> RootForm:
    """Sort an arbitrary triple of floats into a RootForm, which checks it."""
    return RootForm(*sorted((float(a), float(b), float(c))))


def oriented_root_form(b: Basis2) -> tuple[OrientedRootForm, LatticeSign]:
    """Cyclic-canonical root products plus the chirality sign of the lattice.

    The obtuse superbase is labelled so det(v1, v2) > 0 (an odd relabelling
    also swaps the roles of p01/p02); the conorm triple written as
    (p12, p01, p02) is then well defined up to cyclic rotation, and rotating
    the minimum root product to the front fixes the representative. The sign
    is positive when the last two entries ascend, negative when they descend,
    and neutral when the lattice is achiral (then the triple is fully sorted).
    The neutral rule is the contract: with the root products sorted as
    a <= b <= c, neutral exactly when min(a, b - a, c - b) <= SIGN_TOL * c.
    """
    x1, y1 = b.v1
    x2, y2 = b.v2
    _, w, sign, _ = _oriented_root_products(x1, y1, x2, y2)
    return tuple.__new__(OrientedRootForm, w), sign


def orient_obtuse(obt: ObtuseSuperbase) -> tuple[OrientedRootForm, LatticeSign]:
    """:func:`oriented_root_form` of a superbase that is already reduced."""
    w, sign = _obtuse_root_products(obt.v0.x, obt.v0.y, obt.v1.x, obt.v1.y, obt.v2.x, obt.v2.y)
    return tuple.__new__(OrientedRootForm, w), sign


def squared_norm_from_conorms(c: ConormTriple, c1: int, c2: int) -> float:
    """Squared length of c1*v1 + c2*v2 for any superbase realising the conorms."""
    p12, p01, p02 = c
    return c1 * c1 * p01 + c2 * c2 * p02 + (c1 - c2) * (c1 - c2) * p12
