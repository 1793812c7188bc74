"""Brute-force Voronoi vectors and domains of 2D lattices.

A nonzero lattice vector is a Voronoi vector iff it is shortest in its class
modulo the doubled lattice, and strict iff the pair +-v are the only
shortest members. The one tie rule has one scale, a shortest lattice vector
u1: a member is shortest when its squared length exceeds the class
minimum's by at most TIE_TOL |u1|^2. The Voronoi domain has one edge on the
bisector p . v = v^2 / 2 of each strict Voronoi vector v, and its vertices
are counterclockwise (see ``_domain``).

Input bases are first reduced with ``lattice.lagrange_gauss``, as in
``reduce_to_obtuse``, only to keep the search small. So
``verify_partial_sums`` judges a superbase against a brute-force search,
not a second reduction, and is an oracle for the reduction. Reported
integer coefficients refer to the input basis.
Basis2 checks that basis once; the candidates and the cell's vertices,
computed over the shortest Voronoi vector's length, are built unchecked.
VoronoiVector and VoronoiDomainPolygon are immutable named tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lattice import Basis2, Superbase2, Vec2, lagrange_gauss

# Two class members tie when their squared lengths differ by at most this
# times the shortest lattice vector's.
TIE_TOL = 1e-9


class VoronoiVector(NamedTuple):
    """Shortest lattice vector of one nonzero class modulo 2*lattice."""

    coeffs: tuple[int, int]
    vector: Vec2
    strict: bool


class VoronoiDomainPolygon(NamedTuple):
    """Centrally symmetric cell around the origin, vertices CCW. From aspect
    about 1e5 some turns are not to the left, as in the exact cell rounded."""

    vertices: tuple[Vec2, ...]

    def area(self) -> float:
        pts = self.vertices
        # halved term by term: a cell near the largest accepted coordinates has
        # a finite area whose doubled sum overflows
        return sum(0.5 * p.cross(q) for p, q in zip(pts, pts[1:] + pts[:1]))


def voronoi_vectors(b: Basis2) -> list[VoronoiVector]:
    """All shortest members of the three nonzero classes modulo 2*lattice.

    Each class is searched around the member k = ka u1 + kc u2 that the
    reduced basis (u1, u2) gives: u1, u2, or the shorter of u1 +- u2. In the
    Gram form (g11, g12, g22) of (u1, u2), the excess of a u1 + c u2 over k
    is (a^2 - ka^2) g11 + 2 (a c - ka kc) g12 + (c^2 - kc^2) g22. Candidates
    with an excess of at most TIE_TOL g11 are admitted; row c visits only
    the a solved from that bound, plus one each side, so a class visits O(1)
    candidates at any aspect ratio. Its members are the admitted ones within
    TIE_TOL g11 of its minimum; it is strict when they are one +- pair.
    """
    k = -math.frexp(max(map(abs, (*b.v1, *b.v2))))[1]  # at 2^k no square under- or overflows
    (x1, y1, x2, y2), (m1, m2), _ = lagrange_gauss(*(math.ldexp(c, k) for c in (*b.v1, *b.v2)))
    n1 = math.hypot(x1, y1)
    e1x, e1y, e2x, e2y = x1 / n1, y1 / n1, x2 / n1, y2 / n1  # in units of |u1|, the tie scale
    # the Gram form over g11 = |u1|^2 is (1, mu, rho), and rho - mu^2 = delta^2
    mu, rho, delta = e1x * e2x + e1y * e2y, e2x * e2x + e2y * e2y, abs(e1x * e2y - e1y * e2x)
    out: list[VoronoiVector] = []
    for ka, kc in ((1, 0), (0, 1), (1, -1 if mu > 0.0 else 1)):
        def excess(a, c):  # over k, in units of g11: no two terms of size g22 cancel
            return (a * a - ka * ka) + 2 * (a * c - ka * kc) * mu + (c * c - kc * kc) * rho
        # excess(a, c) <= TIE_TOL is (a + c mu)^2 + (c delta)^2 <= TIE_TOL - excess(0, 0)
        cmax = int(math.sqrt(TIE_TOL - excess(0, 0)) / delta) + 1
        candidates = []
        for c in range(-cmax - (cmax + kc) % 2, cmax + 1, 2):  # every c of parity kc
            rest = TIE_TOL + (cm := c * mu) * cm - excess(0, c)  # the bound on (a + c mu)^2
            if rest < 0.0:
                continue
            half = math.sqrt(rest)
            lo = math.floor(-c * mu - half) - 1
            for a in range(lo + (lo + ka) % 2, math.ceil(-c * mu + half) + 2, 2):
                if (e := excess(a, c)) <= TIE_TOL:
                    candidates.append((e, a, c))
        emin = min(m[0] for m in candidates)
        members = sorted((a, c) for e, a, c in candidates if e - emin <= TIE_TOL)
        strict = len(members) == 2 and members[0] == (-members[1][0], -members[1][1])
        for a, c in members:
            w = tuple.__new__(Vec2, (math.ldexp(a * x1 + c * x2, -k),
                                     math.ldexp(a * y1 + c * y2, -k)))
            out.append(VoronoiVector((a * m1[0] + c * m2[0], a * m1[1] + c * m2[1]), w, strict))
    return out


def voronoi_domain(b: Basis2) -> VoronoiDomainPolygon:
    """Voronoi cell of the origin: one edge on the bisector of each strict
    Voronoi vector, so 6 vertices, or 4 when one class is non-strict.
    The vertex list starts at the lexicographically smallest vertex.
    """
    return _domain(voronoi_vectors(b))


def _domain(vvs: list[VoronoiVector]) -> VoronoiDomainPolygon:
    """voronoi_domain of the lattice whose Voronoi vectors are vvs. The strict
    ones, divided by the shortest one's length n, are sorted by angle, so the
    cell is counterclockwise; a non-strict bisector only touches it at a
    vertex. The vertex of neighbours a, b is p = a / 2 + t a_perp, on a's
    bisector, with t = b . c / (2 a x c) putting it on b's. Here c = b - a is
    the Voronoi vector between them (strict, or non-strict when there are 4),
    looked up by its coefficients: on a thin cell a and b are long and nearly
    parallel, and c computed as b - a would carry b's rounding, which their
    crossing point magnifies by the aspect ratio."""
    n = min(v.vector.norm() for v in vvs)
    e = {v.coeffs: (v.vector.x / n, v.vector.y / n) for v in vvs}
    strict = sorted((v.coeffs for v in vvs if v.strict), key=lambda c: math.atan2(e[c][1], e[c][0]))
    xy = []
    for ca, cb in zip(strict, strict[1:] + strict[:1]):
        (ax, ay), (bx, by), (cx, cy) = e[ca], e[cb], e[(cb[0] - ca[0], cb[1] - ca[1])]
        t = (bx * cx + by * cy) / (2.0 * (ax * cy - ay * cx))
        xy.append(((0.5 * ax - t * ay) * n, (0.5 * ay + t * ax) * n))
    start = xy.index(min(xy))
    return VoronoiDomainPolygon(tuple(tuple.__new__(Vec2, p) for p in xy[start:] + xy[:start]))


def verify_partial_sums(s: Superbase2) -> bool:
    """Oracle check that +-v0, +-v1, +-v2 are Voronoi vectors of the lattice.

    They are looked up by their exact coefficients +-(1, 1), +-(1, 0) and
    +-(0, 1) in the basis (v1, v2). Strictness is checked class by class, by
    voronoi_vectors' own tie rule: the class of v_k holds +-v_k and the
    partner +-(v_i - v_j), whose squared length exceeds |v_k|^2 by
    -4 v_i . v_j, so it must be strict exactly when -4 v_i . v_j > TIE_TOL
    min(vonorms). Returns False on any mismatch (an obtuse superbase must
    always pass), and raises Basis2's error where (v1, v2) is not a basis.
    """
    found = {v.coeffs: v.strict for v in voronoi_vectors(Basis2(s.v1, s.v2))}
    n = min(v.norm() for v in s.vectors())
    e0, e1, e2 = (tuple.__new__(Vec2, (v.x / n, v.y / n)) for v in s.vectors())  # no underflow
    for (c1, c2), ei, ej in (((1, 1), e1, e2), ((1, 0), e2, e0), ((0, 1), e0, e1)):
        strict = -4.0 * ei.dot(ej) > TIE_TOL
        if found.get((c1, c2)) != strict or found.get((-c1, -c2)) != strict:
            return False
    return True
