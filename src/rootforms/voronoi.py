"""Brute-force Voronoi vectors and domains of 2D lattices.

A nonzero lattice vector is a Voronoi vector iff it is shortest in its class
modulo the doubled lattice, and strict iff the pair +-v are the only
shortest members. The Voronoi domain is the intersection of the half-planes
p . v <= v^2 / 2 over the Voronoi vectors.

Input bases are first reduced with ``lattice.lagrange_gauss``, the helper
``reduce_to_obtuse`` uses too. That only picks the enumeration basis: the
search ball is sized from the basis it returns and holds every class minimum
whatever basis of the lattice that is, so reducing only keeps the enumeration
small. ``verify_partial_sums`` therefore judges a superbase against a
brute-force enumeration, not against a second reduction, which lets it serve
as an oracle for the reduction. Reported integer coefficients always refer
to the original basis. VoronoiVector and VoronoiDomainPolygon are immutable
named tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lattice import Basis2, Superbase2, Vec2, conorms, lagrange_gauss, vonorms, NEG_TOL

# Two candidate lengths tie when they differ by less than this, relatively.
TIE_TOL = 1e-9
# Vertices of the clipped polygon merge below this scale-relative distance.
VERTEX_TOL = 1e-9
SEARCH_RADIUS_FACTOR = 4.0


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

    Enumerates every lattice vector up to SEARCH_RADIUS_FACTOR times the
    longer reduced basis vector, buckets nonzero vectors by coefficient
    parity, and keeps each bucket's shortest members (ties within TIE_TOL
    relative). A bucket whose shortest members are exactly one +- pair is
    strict.
    """
    (x1, y1, x2, y2), (m1, m2), _ = lagrange_gauss(b.v1.x, b.v1.y, b.v2.x, b.v2.y)
    u1, u2 = Vec2(x1, y1), Vec2(x2, y2)
    radius = SEARCH_RADIUS_FACTOR * max(u1.norm(), u2.norm())
    det = abs(u1.cross(u2))
    amax = int(math.floor(radius * u2.norm() / det)) + 1
    bmax = int(math.floor(radius * u1.norm() / det)) + 1

    candidates: dict[tuple[int, int], list[tuple[float, int, int, Vec2]]] = {
        (1, 0): [], (0, 1): [], (1, 1): []
    }
    for a in range(-amax, amax + 1):
        for c in range(-bmax, bmax + 1):
            cls = (a & 1, c & 1)
            if cls == (0, 0):
                continue
            w = Vec2(a * u1.x + c * u2.x, a * u1.y + c * u2.y)
            n = w.norm()
            if n <= radius:
                candidates[cls].append((n, a, c, w))

    out: list[VoronoiVector] = []
    for cls in ((1, 0), (0, 1), (1, 1)):
        nmin = min(m[0] for m in candidates[cls])
        members = [m for m in candidates[cls] if m[0] <= nmin * (1.0 + TIE_TOL)]
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
            if dq > 0.0:
                t = dp / (dp - dq)
                result.append(Vec2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)))
        elif dq <= 0.0:
            t = dp / (dp - dq)
            result.append(Vec2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)))
    return result


def voronoi_domain(b: Basis2) -> VoronoiDomainPolygon:
    """Voronoi cell of the origin: intersection of bisector half-planes.

    Returns 6 vertices for a generic lattice and 4 for a rectangular one
    (coincident corners from redundant non-strict bisectors are merged).
    The vertex list starts at the lexicographically smallest vertex.
    """
    vvs = voronoi_vectors(b)
    scale = max(v.vector.norm() for v in vvs)
    half = 1.1 * scale
    poly = [Vec2(half, half), Vec2(-half, half), Vec2(-half, -half), Vec2(half, -half)]
    for v in vvs:
        poly = _clip_halfplane(poly, v.vector, 0.5 * v.vector.norm_sq())

    merged: list[Vec2] = []
    tol = VERTEX_TOL * scale
    for p in poly:
        if not merged or (p - merged[-1]).norm() > tol:
            merged.append(p)
    if len(merged) > 1 and (merged[0] - merged[-1]).norm() <= tol:
        merged.pop()

    area2 = sum(merged[i].cross(merged[(i + 1) % len(merged)]) for i in range(len(merged)))
    if area2 < 0.0:
        merged.reverse()
    start = min(range(len(merged)), key=lambda i: (merged[i].x, merged[i].y))
    return VoronoiDomainPolygon(tuple(merged[start:] + merged[:start]))


def verify_partial_sums(s: Superbase2) -> bool:
    """Oracle check that +-v0, +-v1, +-v2 are Voronoi vectors of the lattice.

    Also verifies strictness class by class: the class of v_k must be strict
    exactly when the conorm of the complementary pair is positive. Returns
    False on any mismatch (an obtuse superbase must always pass).
    """
    try:
        vvs = voronoi_vectors(Basis2(s.v1, s.v2))
    except ValueError:
        return False
    scale = max(v.norm() for v in s.vectors())
    tol = 1e-9 * scale
    p12, p01, p02 = conorms(s)
    strict_tol = NEG_TOL * max(vonorms(s))
    # complementary conorm of v0 is p12, of v1 is p02, of v2 is p01
    for target, comp in ((s.v0, p12), (s.v1, p02), (s.v2, p01)):
        for t in (target, -target):
            found = [v for v in vvs if (v.vector - t).norm() <= tol]
            if not found:
                return False
            if found[0].strict != (comp > strict_tol):
                return False
    return True
