"""Distances between lattice isometry classes.

Root metrics compare root-product triples with a Minkowski L_q norm: the
plain metric compares sorted triples entry by entry, the orientation-preserving
metric takes the minimum over the three cyclic rotations. The superbase
distance is the minimax vector alignment over orthogonal maps and superbase
symmetries; the best rotation angle is solved in closed form.

q is any real >= 1; math.inf selects the max norm.
"""

from __future__ import annotations

import math
from typing import Sequence

from .lattice import ObtuseSuperbase

_PERMS_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_PERMS_A3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _check_order(q: float) -> float:
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise ValueError(f"Minkowski order must be >= 1, got {q}")
    return q


def _lq(d0: float, d1: float, d2: float, q: float) -> float:
    """L_q norm of a nonnegative triple, summed in a fixed (sorted) order.

    The fixed summation order makes d(a, b) == d(b, a) bit-exact.
    """
    if q == math.inf:
        return max(d0, d1, d2)
    d0, d1, d2 = sorted((d0, d1, d2))
    if q == 1.0:
        return d0 + d1 + d2
    if q == 2.0:
        return math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    return (d0**q + d1**q + d2**q) ** (1.0 / q)


def root_metric(a: Sequence[float], b: Sequence[float], q: float = 2.0) -> float:
    """Distance between isometry classes given by root-product triples.

    Inputs are canonicalised by sorting and compared entry by entry: by the
    rearrangement inequality, pairing sorted entries minimises every L_q over
    all permutations.
    """
    q = _check_order(q)
    a0, a1, a2 = sorted(a)
    b0, b1, b2 = sorted(b)
    return _lq(abs(a0 - b0), abs(a1 - b1), abs(a2 - b2), q)


def root_metric_oriented(a: Sequence[float], b: Sequence[float], q: float = 2.0) -> float:
    """Distance between oriented classes: minimum over cyclic rotations only.

    Inputs are oriented root forms (or any cyclic representatives); they are
    deliberately not sorted, since sorting would erase chirality.
    """
    q = _check_order(q)
    a0, a1, a2 = a
    b = tuple(b)
    best = math.inf
    for i, j, k in _PERMS_A3:
        d = _lq(abs(a0 - b[i]), abs(a1 - b[j]), abs(a2 - b[k]), q)
        if d < best:
            best = d
    return best


def continuity_bound(l: float, delta: float, q: float = 2.0) -> float:
    """Upper bound 3^(1/q) * sqrt(2 l delta) on the root-metric shift.

    Valid whenever two obtuse superbases with max vector length l differ
    vectorwise by at most delta; the factor is 1 at q = +inf.
    """
    q = _check_order(q)
    if l < 0.0 or delta < 0.0:
        raise ValueError("l and delta must be nonnegative")
    factor = 1.0 if q == math.inf else 3.0 ** (1.0 / q)
    return factor * math.sqrt(2.0 * l * delta)


def superbase_distance_linf(
    b1: ObtuseSuperbase, b2: ObtuseSuperbase, allow_reflection: bool = True
) -> float:
    """Minimax vector alignment distance between two obtuse superbases.

    Minimises max_i |R(u_i) - v_i| over rotations R (plus reflections when
    allowed) and over the superbase symmetries: all relabellings of the three
    vectors, with the central symmetry covered by the half-turn rotation.
    The minimum over the rotation angle is solved in closed form, so the
    result is exact up to rounding.
    """
    v = [(w.x, w.y) for w in b1.vectors()]
    u = [(w.x, w.y) for w in b2.vectors()]
    mirrors = (u, [(x, -y) for x, y in u]) if allow_reflection else (u,)
    best = math.inf
    for um in mirrors:
        for perm in _PERMS_S3:
            best = _aligned_sq(v, [um[i] for i in perm], best)
    return math.sqrt(best)


def _aligned_sq(v, u, bound: float) -> float:
    """min(bound, exact min over angles t of max_i |R_t(u_i) - v_i|^2).

    Around the least-squares angle t0, with w = R_t0(u) and residual
    e = w - v, pair i's misfit at t0 + s is the sinusoid
    |e|^2 + 4 sin^2(s/2) P + 2 sin(s) Q, with P = |w|^2 - e.w and Q = w x e.
    This form, unlike A - B cos t - C sin t, stays precise when e is tiny.
    The minimum of the largest misfit lies at one sinusoid's own minimum or
    where two cross; each crossing is a root of a quadratic in tan(s/2).
    """
    dot = crs = 0.0
    for (ux, uy), (vx, vy) in zip(u, v):
        dot += ux * vx + uy * vy
        crs += ux * vy - uy * vx
    t0 = math.atan2(crs, dot)
    c0, s0 = math.cos(t0), math.sin(t0)
    terms = []
    for (ux, uy), (vx, vy) in zip(u, v):
        wx, wy = c0 * ux - s0 * uy, s0 * ux + c0 * uy
        ex, ey = wx - vx, wy - vy
        terms.append((ex * ex + ey * ey, wx * wx + wy * wy - ex * wx - ey * wy, wx * ey - wy * ex))
    if sum(t[0] for t in terms) >= 3.0 * bound:
        return bound  # the largest misfit is at least the mean, which t0 minimises
    # s = pi also stands for the crossing at tan(s/2) = infinity
    offsets = [0.0, math.pi]
    for i, (e_i, p_i, q_i) in enumerate(terms):
        offsets.append(math.atan2(-q_i, p_i))
        for e_j, p_j, q_j in terms[i + 1:]:
            a, b, c = e_i - e_j + 4.0 * (p_i - p_j), 4.0 * (q_i - q_j), e_i - e_j
            m = max(abs(a), abs(b), abs(c))
            if m == 0.0:
                continue  # identical sinusoids
            a, b, c = a / m, b / m, c / m  # keeps b*b - 4ac in range
            disc = b * b - 4.0 * a * c
            if disc < 0.0:
                continue
            h = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            for num, den in ((h, a), (c, h)):  # cancellation-free roots
                if den != 0.0:
                    offsets.append(2.0 * math.atan(num / den))
    best = bound
    for s in offsets:
        # direct subtraction: no cancellation near a perfect match
        c, sn = math.cos(t0 + s), math.sin(t0 + s)
        worst = max(
            (c * ux - sn * uy - vx) ** 2 + (sn * ux + c * uy - vy) ** 2
            for (ux, uy), (vx, vy) in zip(u, v)
        )
        if worst < best:
            best = worst
    return best
