"""Brute-force Voronoi vectors and domains of 2D lattices.

A nonzero lattice vector is a Voronoi vector iff it is shortest in its class
modulo the doubled lattice, and strict iff the pair +-v are the only
shortest members. The one tie rule: a member is shortest when its length is
within TIE_TOL of the class minimum's, relatively. In an obtuse superbase
the class of v_k holds +-v_k and the partner +-(v_i - v_j), so it is strict
iff |v_i - v_j| > |v_k| (1 + TIE_TOL), as ``verify_partial_sums`` expects.
The Voronoi domain, the intersection of the half-planes p . v <= v^2 / 2
over the Voronoi vectors, is counterclockwise (see ``_domain``).

Input bases are first reduced with ``lattice.lagrange_gauss``, as in
``reduce_to_obtuse``, only to keep the enumeration small: each class is
searched in a ball as long as one of its members, which holds the class
minimum whatever the basis. So ``verify_partial_sums`` judges a superbase
against a brute-force enumeration, not a second reduction, and is an oracle
for the reduction. Reported integer coefficients refer to the input basis.
Basis2 checks that basis once; the candidates and the clip's start square,
small multiples of it, are built unchecked. The clip's crossing points stay
checked: near the largest accepted coordinates p . w overflows to a NaN.
VoronoiVector and VoronoiDomainPolygon are immutable named tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lattice import Basis2, Superbase2, Vec2, lagrange_gauss

# Two candidate lengths tie when they differ by less than this, relatively.
TIE_TOL = 1e-9
# Clipped-polygon vertices merge, and +-v_k match, below this relative distance.
VERTEX_TOL = 1e-9


class VoronoiVector(NamedTuple):
    """Shortest lattice vector of one nonzero class modulo 2*lattice."""

    coeffs: tuple[int, int]
    vector: Vec2
    strict: bool


class VoronoiDomainPolygon(NamedTuple):
    """Convex, centrally symmetric cell around the origin, vertices CCW."""

    vertices: tuple[Vec2, ...]

    def area(self) -> float:
        total = 0.0
        pts = self.vertices
        for i, p in enumerate(pts):
            q = pts[(i + 1) % len(pts)]
            total += p.cross(q)
        return 0.5 * total


def voronoi_vectors(b: Basis2) -> list[VoronoiVector]:
    """All shortest members of the three nonzero classes modulo 2*lattice.

    Each class is searched on its own, in the ball of radius 1 + 2 TIE_TOL
    times a member the reduced basis (u1, u2) gives: u1 for coefficients
    (1, 0), u2 for (0, 1), the shorter of u1 +- u2 for (1, 1). A class
    minimum is no longer than any member, so the ball holds all its shortest
    members. Row c visits only the a with |a u1 + c u2| <= radius, solved
    from the quadratic, plus one each side. Each class keeps its shortest
    members (ties within TIE_TOL relative); one whose shortest members are
    exactly one +- pair is strict.
    """
    (x1, y1, x2, y2), (m1, m2), _ = lagrange_gauss(b.v1.x, b.v1.y, b.v2.x, b.v2.y)
    n1 = math.hypot(x1, y1)
    # |a u1 + c u2|^2 = |u1|^2 ((a + c mu)^2 + (c delta)^2), from u1 and u2 over |u1|
    e1x, e1y, e2x, e2y = x1 / n1, y1 / n1, x2 / n1, y2 / n1
    mu, delta = e1x * e2x + e1y * e2y, abs(e1x * e2y - e1y * e2x)
    known = {(1, 0): n1, (0, 1): math.hypot(x2, y2),
             (1, 1): min(math.hypot(x1 + x2, y1 + y2), math.hypot(x1 - x2, y1 - y2))}

    out: list[VoronoiVector] = []
    for (pa, pc), norm in known.items():
        radius = norm * (1.0 + 2.0 * TIE_TOL)
        rho = radius / n1
        candidates = []
        cmax = int(rho / delta) + 1
        for c in range(-cmax - (cmax + pc) % 2, cmax + 1, 2):  # every c of parity pc
            half = math.sqrt(max(rho * rho - (c * delta) ** 2, 0.0))
            lo = math.floor(-c * mu - half) - 1
            for a in range(lo + (lo + pa) % 2, math.ceil(-c * mu + half) + 2, 2):
                w = tuple.__new__(Vec2, (a * x1 + c * x2, a * y1 + c * y2))
                n = w.norm()
                if n <= radius:
                    candidates.append((n, a, c, w))
        nmin = min(m[0] for m in candidates)
        members = [m for m in candidates if m[0] <= nmin * (1.0 + TIE_TOL)]
        coeff_set = {(a, c) for _, a, c, _ in members}
        strict = len(coeff_set) == 2 and all((-a, -c) in coeff_set for a, c in coeff_set)
        for _, a, c, w in sorted(members, key=lambda m: (m[1], m[2])):
            c1 = a * m1[0] + c * m2[0]
            c2 = a * m1[1] + c * m2[1]
            out.append(VoronoiVector((c1, c2), w, strict))
    return out


def _clip_halfplane(poly: list[Vec2], w: Vec2, offset: float) -> list[Vec2]:
    """Keep the part of a convex polygon with p . w <= offset."""
    result: list[Vec2] = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        dp, dq = p.dot(w) - offset, q.dot(w) - offset
        if dp <= 0.0:
            result.append(p)
        if (dp <= 0.0) != (dq <= 0.0):
            t = dp / (dp - dq)
            result.append(Vec2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)))
    return result


def voronoi_domain(b: Basis2) -> VoronoiDomainPolygon:
    """Voronoi cell of the origin: intersection of bisector half-planes.

    Returns 6 vertices for a generic lattice and 4 for a rectangular one
    (coincident corners from redundant non-strict bisectors are merged).
    The vertex list starts at the lexicographically smallest vertex.
    """
    return _domain(voronoi_vectors(b))


def _domain(vvs: list[VoronoiVector]) -> VoronoiDomainPolygon:
    """voronoi_domain of the lattice whose Voronoi vectors are vvs. Counterclockwise
    by construction: the clip starts from a counterclockwise square and keeps the
    vertex order, and the merge only drops vertices."""
    scale = max(v.vector.norm() for v in vvs)
    h = 1.1 * scale
    poly = [tuple.__new__(Vec2, xy) for xy in ((h, h), (-h, h), (-h, -h), (h, -h))]
    for v in vvs:
        poly = _clip_halfplane(poly, v.vector, 0.5 * v.vector.norm_sq())

    merged: list[Vec2] = []
    tol = VERTEX_TOL * scale
    for p in poly:
        if not merged or (p - merged[-1]).norm() > tol:
            merged.append(p)
    if len(merged) > 1 and (merged[0] - merged[-1]).norm() <= tol:
        merged.pop()
    start = min(range(len(merged)), key=lambda i: (merged[i].x, merged[i].y))
    return VoronoiDomainPolygon(tuple(merged[start:] + merged[:start]))


def verify_partial_sums(s: Superbase2) -> bool:
    """Oracle check that +-v0, +-v1, +-v2 are Voronoi vectors of the lattice.

    Also verifies strictness class by class, by voronoi_vectors' own tie
    rule: the class of v_k must be strict exactly when its partner v_i - v_j
    is longer than v_k by more than TIE_TOL, relatively. Returns False on
    any mismatch (an obtuse superbase must always pass).
    """
    try:
        vvs = voronoi_vectors(Basis2(s.v1, s.v2))
    except ValueError:
        return False
    tol = VERTEX_TOL * max(v.norm() for v in s.vectors())
    for target, partner in ((s.v0, s.v1 - s.v2), (s.v1, s.v2 - s.v0), (s.v2, s.v0 - s.v1)):
        strict = partner.norm() > target.norm() * (1.0 + TIE_TOL)
        for t in (target, -target):
            found = [v for v in vvs if (v.vector - t).norm() <= tol]
            if not found or found[0].strict != strict:
                return False
    return True
