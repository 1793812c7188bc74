"""Distances between lattice isometry classes.

Root metrics compare root-product triples with a Minkowski L_q norm: the
plain metric compares sorted triples entry by entry, the orientation-preserving
metric takes the minimum over the three cyclic rotations. The superbase
distance is the minimax vector alignment over orthogonal maps and superbase
symmetries; the best rotation angle is solved in closed form.

q is any real >= 1; math.inf selects the max norm. Root-product entries must
be finite and nonnegative, else the root metrics raise ValueError.

A root-metric call is one frame plus one _norm call per difference triple: q
is checked inline, swap networks sort, RM_q+ unrolls its rotations. Per call on
a 2-CPU x86_64 host (Python 3.11), RM_inf takes 0.47 us (was 1.08), RM_2 0.54
(1.09) and RM_2+ 1.12 (2.05), bit-identical to the former sorted()/_lq form.

superbase_distance_linf ranks its 12 relabellings by a closed-form lower bound
and runs the one-frame exact sweep only while a relabelling can still win: one
is left for each planted near duplicate of the benchmark's match corpus. Per
call on the same host that takes 34 us (was 79), and 80 us (was 186) between
two of its reference lattices, bit-identical to sweeping all 12 in order.
"""

from __future__ import annotations

import math
from typing import Sequence

from .lattice import ObtuseSuperbase


def _check_order(q: float) -> float:
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise ValueError(f"Minkowski order must be >= 1, got {q}")
    return q


def _norm(d0: float, d1: float, d2: float, q: float) -> float:
    """L_q norm of a finite nonnegative triple, summed in sorted order.

    The fixed order makes d(a, b) == d(b, a) bit-exact at every q (math.hypot
    does not promise order independence); other q factor the largest entry out.
    """
    if q == math.inf:
        d0 = d0 if d0 >= d1 else d1
        return d0 if d0 >= d2 else d2
    if d0 > d1: d0, d1 = d1, d0  # a three-comparison swap network sorts as sorted() does
    if d1 > d2: d1, d2 = d2, d1
    if d0 > d1: d0, d1 = d1, d0
    if q == 2.0:
        return math.hypot(d0, d1, d2)
    if q == 1.0:
        return d0 + d1 + d2
    if d2 == 0.0:  # nothing to factor out
        return 0.0
    return d2 * ((d0 / d2) ** q + (d1 / d2) ** q + 1.0) ** (1.0 / q)


def root_metric(a: Sequence[float], b: Sequence[float], q: float = 2.0) -> float:
    """Distance between isometry classes given by root-product triples.

    Inputs are canonicalised by sorting and compared entry by entry: by the
    rearrangement inequality, pairing sorted entries minimises every L_q over
    all permutations.
    """
    q = q if q.__class__ is float and q >= 1.0 else _check_order(q)  # NaN fails >= too
    a0, a1, a2 = a
    b0, b1, b2 = b
    if a0 > a1: a0, a1 = a1, a0
    if a1 > a2: a1, a2 = a2, a1
    if a0 > a1: a0, a1 = a1, a0
    if b0 > b1: b0, b1 = b1, b0
    if b1 > b2: b1, b2 = b2, b1
    if b0 > b1: b0, b1 = b1, b0
    if not (0.0 <= a0 <= a1 <= a2 < math.inf and 0.0 <= b0 <= b1 <= b2 < math.inf):
        raise ValueError(f"root products must be finite and nonnegative, got {a} and {b}")
    return _norm(abs(a0 - b0), abs(a1 - b1), abs(a2 - b2), q)


def root_metric_oriented(a: Sequence[float], b: Sequence[float], q: float = 2.0) -> float:
    """Distance between oriented classes: minimum over cyclic rotations only.

    Inputs are oriented root forms (or any cyclic representatives); they are
    deliberately not sorted, since sorting would erase chirality.
    """
    q = q if q.__class__ is float and q >= 1.0 else _check_order(q)
    a0, a1, a2 = a
    b0, b1, b2 = b
    if not (0.0 <= a0 < math.inf and 0.0 <= a1 < math.inf and 0.0 <= a2 < math.inf
            and 0.0 <= b0 < math.inf and 0.0 <= b1 < math.inf and 0.0 <= b2 < math.inf):
        b = (b0, b1, b2)
        raise ValueError(f"root products must be finite and nonnegative, got {a} and {b}")
    d = _norm(abs(a0 - b0), abs(a1 - b1), abs(a2 - b2), q)  # the three rotations of b
    e = _norm(abs(a0 - b1), abs(a1 - b2), abs(a2 - b0), q)
    f = _norm(abs(a0 - b2), abs(a1 - b0), abs(a2 - b1), q)
    return d if d <= e and d <= f else e if e <= f else f


def continuity_bound(l: float, delta: float, q: float = 2.0) -> float:
    """Upper bound 3^(1/q) * sqrt(2 l delta) on the root-metric shift.

    Valid whenever two obtuse superbases with max vector length l differ
    vectorwise by at most delta; the factor is 1 at q = +inf.
    """
    q = _check_order(q)
    if not (0.0 <= l < math.inf and 0.0 <= delta < math.inf):  # False for NaN too
        raise ValueError("l and delta must be finite and nonnegative")
    factor = 1.0 if q == math.inf else 3.0 ** (1.0 / q)
    return factor * math.sqrt(2.0 * l * delta)


# The relabellings (u[i], u[j], u[k]) in itertools.permutations order.
_RELABELLINGS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def superbase_distance_linf(
    b1: ObtuseSuperbase, b2: ObtuseSuperbase, allow_reflection: bool = True
) -> float:
    """Minimax vector alignment distance between two obtuse superbases.

    Minimises max_i |R(u_i) - v_i| over rotations R (plus reflections when
    allowed) and over the superbase symmetries: all relabellings of the three
    vectors, with the central symmetry covered by the half-turn rotation.
    The minimum over the rotation angle is solved in closed form, so the
    result is exact up to rounding.

    Relabellings run in the order of their least-squares misfit sum over all
    rotations, S - 2 hypot(sum u.v, sum u x v) with S the six squared
    lengths, which is at most 3 times the largest misfit. The search stops
    once that bound, less a margin of 1e-9 S far above its rounding, reaches
    3 times the best, so stopping never changes the result. A bound that is
    not finite sorts first and never stops the search.
    """
    v = tuple((w.x, w.y) for w in b1.vectors())
    u = tuple((w.x, w.y) for w in b2.vectors())
    (ax, ay), (bx, by), (cx, cy) = v
    total = 0.0
    for x, y in v + u:
        total += x * x + y * y
    ranked = []
    for um in ((u, tuple((x, -y) for x, y in u)) if allow_reflection else (u,)):
        dots, crss = [], []  # row i: u_i against v0, v1, v2
        for ux, uy in um:
            dots.append((ux * ax + uy * ay, ux * bx + uy * by, ux * cx + uy * cy))
            crss.append((ux * ay - uy * ax, ux * by - uy * bx, ux * cy - uy * cx))
        for i, j, k in _RELABELLINGS:
            lsq = total - 2.0 * math.hypot(dots[i][0] + dots[j][1] + dots[k][2],
                                           crss[i][0] + crss[j][1] + crss[k][2])
            ranked.append((lsq if lsq < math.inf else -math.inf, len(ranked),
                           (um[i], um[j], um[k])))
    ranked.sort()  # the index breaks ties, so equal bounds keep permutation order
    margin = 1e-9 * total
    best = math.inf
    for lsq, _, perm in ranked:
        if lsq - margin >= 3.0 * best:
            break
        best = _aligned_sq(v, perm, best)
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
    (u0x, u0y), (u1x, u1y), (u2x, u2y) = u
    (v0x, v0y), (v1x, v1y), (v2x, v2y) = v
    dot = 0.0 + (u0x * v0x + u0y * v0y) + (u1x * v1x + u1y * v1y) + (u2x * v2x + u2y * v2y)
    crs = 0.0 + (u0x * v0y - u0y * v0x) + (u1x * v1y - u1y * v1x) + (u2x * v2y - u2y * v2x)
    t0 = math.atan2(crs, dot)
    c0, s0 = math.cos(t0), math.sin(t0)
    terms = []
    for ux, uy, vx, vy in ((u0x, u0y, v0x, v0y), (u1x, u1y, v1x, v1y), (u2x, u2y, v2x, v2y)):
        wx, wy = c0 * ux - s0 * uy, s0 * ux + c0 * uy
        ex, ey = wx - vx, wy - vy
        terms.append((ex * ex + ey * ey, wx * wx + wy * wy - ex * wx - ey * wy, wx * ey - wy * ex))
    if terms[0][0] + terms[1][0] + terms[2][0] >= 3.0 * bound:
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
        m0 = (c * u0x - sn * u0y - v0x) ** 2 + (sn * u0x + c * u0y - v0y) ** 2
        m1 = (c * u1x - sn * u1y - v1x) ** 2 + (sn * u1x + c * u1y - v1y) ** 2
        m2 = (c * u2x - sn * u2y - v2x) ** 2 + (sn * u2x + c * u2y - v2y) ** 2
        worst = m0 if m0 >= m1 else m1
        if m2 > worst:
            worst = m2
        if worst < best:
            best = worst
    return best
