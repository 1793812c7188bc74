"""Core 2D lattice machinery: superbases, reduction, conorms and root forms.

Conventions
-----------
- Coordinates are lengths in Angstroms; conorms and vonorms are areas (A^2);
  root products are lengths again (A).
- A superbase is an ordered triple (v0, v1, v2) with v0 + v1 + v2 = 0; the
  generating basis is (v1, v2).
- Conorm triples are always written in the order (p12, p01, p02) where
  p_ij = -v_i . v_j; vonorm triples as (v0^2, v1^2, v2^2).
- An obtuse superbase has all three conorms >= 0 (up to a scale-relative
  tolerance; tiny negatives are clamped to zero where square roots are taken).

Tolerances are relative to the natural scale of the input (max vonorm or max
root product); there are no absolute thresholds anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import (
    DegenerateBasis,
    DegenerateLattice,
    IterationLimitExceeded,
    LatticeError,
    NegativeConorm,
)

# Relative determinant threshold below which a basis counts as degenerate.
DEG_TOL = 1e-12
# Relative factor for "this conorm is genuinely negative" when deciding
# whether a superbase is obtuse; scaled by its max(vonorms).
NEG_TOL = 1e-10
# Relative factor for root-product ties (neutral/achiral detection); scaled
# by the largest root product.
SIGN_TOL = 1e-8
# Relative tolerance on |v0 + v1 + v2| when validating a superbase.
SUM_TOL = 1e-9
# Reduction step cap; termination is guaranteed in exact arithmetic, the cap
# turns floating-point pathology into a diagnosable error.
MAX_ITER = 1000


@dataclass(frozen=True)
class Vec2:
    """Plane vector with finite coordinates (lengths in Angstroms)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite vector ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

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
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)


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


class RootForm(NamedTuple):
    """Ascending triple of root products; complete isometry invariant.

    Entries satisfy 0 <= r12 <= r01 <= r02 with r01 > 0 (at most the first
    entry may vanish). Use :func:`root_form_from_values` to build one from
    an unsorted or unchecked triple.
    """

    r12: float
    r01: float
    r02: float


class OrientedRootForm(NamedTuple):
    """Root products canonicalised only up to cyclic rotation.

    The smallest entry comes first; the remaining two keep the cyclic order
    induced by a positively oriented superbase, so mirror-image lattices get
    the last two entries swapped. Neutral lattices are fully sorted.
    """

    first: float
    second: float
    third: float


class LatticeSign(Enum):
    """Chirality class of a lattice."""

    NEUTRAL = "neutral"
    POSITIVE = "positive"
    NEGATIVE = "negative"


def _check_in_range(det: float, norm_sq: float) -> None:
    """Reject coordinates whose determinant or largest squared length is not finite."""
    if not (abs(det) < math.inf and norm_sq < math.inf):  # False for NaN too
        raise LatticeError(
            "coordinates overflow: the determinant or a squared length is not finite"
        )


@dataclass(frozen=True)
class Basis2:
    """Two independent plane vectors generating a lattice."""

    v1: Vec2
    v2: Vec2

    def __post_init__(self):
        det = self.det
        n = max(self.v1.norm_sq(), self.v2.norm_sq())
        _check_in_range(det, n)
        if abs(det) <= DEG_TOL * n:
            raise DegenerateBasis(
                f"basis determinant {det:g} below tolerance for scale {math.sqrt(n):g}"
            )

    @property
    def det(self) -> float:
        return self.v1.cross(self.v2)


@dataclass(frozen=True)
class Superbase2:
    """Ordered vector triple (v0, v1, v2) summing to zero."""

    v0: Vec2
    v1: Vec2
    v2: Vec2

    def __post_init__(self):
        det = self.det
        n = max(self.v0.norm_sq(), self.v1.norm_sq(), self.v2.norm_sq())
        _check_in_range(det, n)
        s = self.v0 + self.v1 + self.v2
        if s.norm() > SUM_TOL * math.sqrt(n):
            raise ValueError(f"superbase vectors sum to ({s.x:g}, {s.y:g}), not zero")
        if abs(det) <= DEG_TOL * n:
            raise DegenerateBasis("superbase basis vectors are collinear")

    @property
    def det(self) -> float:
        """Signed area of the cell spanned by (v1, v2)."""
        return self.v1.cross(self.v2)

    def vectors(self) -> tuple[Vec2, Vec2, Vec2]:
        return (self.v0, self.v1, self.v2)


@dataclass(frozen=True)
class ObtuseSuperbase(Superbase2):
    """Superbase with all conorms >= 0 (up to tolerance).

    reduction_steps counts the Lagrange-Gauss passes that produced it; zero
    for a superbase that was already obtuse and came back unchanged.
    """

    reduction_steps: int = 0

    def __post_init__(self):
        super().__post_init__()
        c = conorms(self)
        n = vonorms(self)
        tol = NEG_TOL * max(n)
        if min(c) < -tol:
            raise ValueError(f"superbase is not obtuse: conorms {tuple(c)}")
        if sorted(c)[1] <= tol:
            # two vanishing conorms force a vanishing vonorm
            raise DegenerateLattice(f"two conorms vanish: {tuple(c)}")


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
    tol = NEG_TOL * max(n)
    if min(c) < -tol:
        raise NegativeConorm(f"vonorms {tuple(n)} violate a triangle inequality")
    return c


def lagrange_gauss(x1: float, y1: float, x2: float, y2: float, max_iter: int = MAX_ITER):
    """Lagrange-Gauss reduction of the plane basis ((x1, y1), (x2, y2)) on floats.

    Each pass subtracts the nearest integer multiple of the shorter vector
    from the longer one, then swaps them if the result came out shorter; the
    lengths shrink geometrically, so a pass count near MAX_ITER means the
    floats went wrong, not that the basis was skewed.

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
        if passes >= max_iter:
            raise IterationLimitExceeded(f"reduction exceeded {max_iter} steps")
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


def reduce_to_obtuse(s: Superbase2, max_iter: int = MAX_ITER) -> ObtuseSuperbase:
    """Reduce a superbase of a lattice to an obtuse superbase of the same lattice.

    A superbase with no conorm below ``-NEG_TOL * max(vonorms)`` is returned
    unchanged with zero steps. Otherwise (v1, v2) is Lagrange-Gauss reduced
    to (u1, u2), u2 is negated when u1 . u2 > 0, and the result is
    (-(u1 + u2), u1, u2): with |u1 . u2| <= |u1|^2 / 2 <= |u2|^2 / 2 and
    u1 . u2 <= 0 all three conorms are nonnegative. This is the 2D case of
    Selling reduction.

    Validation happens at entry (Basis2, superbase_from_basis) and once at
    exit (ObtuseSuperbase); the steps in between run on plain floats.

    Args:
        s: any valid superbase.
        max_iter: cap on the Lagrange-Gauss passes; exceeding it raises
            IterationLimitExceeded.

    Returns:
        ObtuseSuperbase spanning the same lattice, with reduction_steps set
        to the number of passes.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    x0, y0, x1, y1, x2, y2 = s.v0.x, s.v0.y, s.v1.x, s.v1.y, s.v2.x, s.v2.y
    tol = NEG_TOL * max(x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2)
    # written so that a NaN product does not count as a negative conorm
    if not (x1 * x2 + y1 * y2 > tol or x0 * x1 + y0 * y1 > tol or x0 * x2 + y0 * y2 > tol):
        return ObtuseSuperbase(s.v0, s.v1, s.v2, reduction_steps=0)
    (x1, y1, x2, y2), _, steps = lagrange_gauss(x1, y1, x2, y2, max_iter)
    if x1 * x2 + y1 * y2 > 0.0:
        x2, y2 = -x2, -y2
    return ObtuseSuperbase(
        Vec2(-(x1 + x2), -(y1 + y2)), Vec2(x1, y1), Vec2(x2, y2), reduction_steps=steps
    )


def _clamped_root_products(s: ObtuseSuperbase) -> tuple[float, float, float]:
    """Square roots of the conorms with tiny negatives clamped to zero."""
    c = conorms(s)
    tol = NEG_TOL * max(vonorms(s))
    out = []
    for p in c:
        if p < -tol:
            raise ValueError(f"conorm {p:g} negative beyond tolerance")
        out.append(math.sqrt(p) if p > 0.0 else 0.0)
    return tuple(out)


def root_form(s: ObtuseSuperbase) -> RootForm:
    """Ascending root products of an obtuse superbase."""
    r = sorted(_clamped_root_products(s))
    if r[1] <= 0.0:
        raise DegenerateLattice("two root products vanish")
    return RootForm(*r)


def root_form_from_values(a: float, b: float, c: float) -> RootForm:
    """Sort and validate an arbitrary nonnegative triple into a RootForm."""
    r = sorted((float(a), float(b), float(c)))
    if r[0] < 0.0:
        raise ValueError(f"negative root product {r[0]:g}")
    if r[1] <= 0.0:
        raise DegenerateLattice("two root products vanish")
    return RootForm(*r)


def _is_neutral(r: tuple[float, float, float], tol: float) -> bool:
    """Achirality test: two root products tie, or the smallest vanishes.

    A vanishing smallest product means one conorm is zero, i.e. a rectangular
    cell; its obtuse superbases are related by reflections, so the lattice
    equals its own mirror image just as when two products coincide.
    """
    a, b, c = sorted(r)
    return (a <= tol) or (b - a <= tol) or (c - b <= tol)


def oriented_root_form(b: Basis2) -> tuple[OrientedRootForm, LatticeSign]:
    """Cyclic-canonical root products plus the chirality sign of the lattice.

    The obtuse superbase is labelled so det(v1, v2) > 0 (an odd relabelling
    also swaps the roles of p01/p02); the conorm triple written as
    (p12, p01, p02) is then well defined up to cyclic rotation, and rotating
    the minimum root product to the front fixes the representative. The sign
    is positive when the last two entries ascend, negative when they descend,
    and neutral when the lattice is achiral (then the triple is fully sorted).
    """
    return orient_obtuse(reduce_to_obtuse(superbase_from_basis(b)))


def orient_obtuse(obt: ObtuseSuperbase) -> tuple[OrientedRootForm, LatticeSign]:
    """:func:`oriented_root_form` of a superbase that is already reduced."""
    w = list(_clamped_root_products(obt))
    if obt.det < 0.0:
        w[1], w[2] = w[2], w[1]
    if sorted(w)[1] <= 0.0:
        raise DegenerateLattice("two root products vanish")
    tol = SIGN_TOL * max(w)
    if _is_neutral(tuple(w), tol):
        return OrientedRootForm(*sorted(w)), LatticeSign.NEUTRAL
    k = w.index(min(w))
    w = w[k:] + w[:k]
    sign = LatticeSign.POSITIVE if w[1] < w[2] else LatticeSign.NEGATIVE
    return OrientedRootForm(*w), sign


def squared_norm_from_conorms(c: ConormTriple, c1: int, c2: int) -> float:
    """Squared length of c1*v1 + c2*v2 for any superbase realising the conorms."""
    p12, p01, p02 = c
    return c1 * c1 * p01 + c2 * c2 * p02 + (c1 - c2) * (c1 - c2) * p12
