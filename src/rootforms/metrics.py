"""Distances between lattice isometry classes.

Root metrics compare root-product triples with a Minkowski L_q norm: the
plain metric compares sorted triples entry by entry, the orientation-preserving
metric takes the minimum over the three cyclic rotations. The superbase
distance is the minimax vector alignment over orthogonal maps and superbase
symmetries; the best rotation angle is solved in closed form.

q is anything float() accepts whose value is at least 1 ("2", True and
Decimal("2.5") are orders; NaN is not); math.inf selects the max norm. Entries
must be finite and nonnegative, else the root metrics raise ValueError.

RM_inf, RM_2 and RM_2+ run in one frame, q checked inline; other cases call
_norm. Swap networks sort the differences for math.hypot too, whose last bit
can depend on their order: so d(a, b) == d(b, a) bit-exactly.

superbase_distance_linf ranks its 12 relabellings by a closed-form lower bound
and runs the one-frame exact sweep only while a relabelling can still win,
with the result of sweeping all 12 in order.
"""

from __future__ import annotations

import math
from typing import Sequence

from .lattice import ObtuseSuperbase, Superbase2, Vec2

_INF = math.inf


def _check_order(q: float) -> float:
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise ValueError(f"Minkowski order must be >= 1, got {q}")
    return q


def _norm(d0: float, d1: float, d2: float, q: float) -> float:
    """L_q norm, the largest entry factored out, of an ascending finite nonnegative triple."""
    if q == 1.0:
        return d0 + d1 + d2
    if q == _INF:
        return d2
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
    if not (0.0 <= a0 <= a1 <= a2 < _INF and 0.0 <= b0 <= b1 <= b2 < _INF):
        raise ValueError(f"root products must be finite and nonnegative, got {a} and {b}")
    d0, d1, d2 = abs(a0 - b0), abs(a1 - b1), abs(a2 - b2)
    if q == _INF:
        return d0 if d0 >= d1 and d0 >= d2 else d1 if d1 >= d2 else d2
    if d0 > d1: d0, d1 = d1, d0
    if d1 > d2: d1, d2 = d2, d1
    if d0 > d1: d0, d1 = d1, d0
    return math.hypot(d0, d1, d2) if q == 2.0 else _norm(d0, d1, d2, q)


def root_metric_oriented(a: Sequence[float], b: Sequence[float], q: float = 2.0) -> float:
    """Distance between oriented classes: minimum over cyclic rotations only.

    Inputs are oriented root forms (or any cyclic representatives); they are
    deliberately not sorted, since sorting would erase chirality.
    """
    q = q if q.__class__ is float and q >= 1.0 else _check_order(q)
    a0, a1, a2 = a
    b0, b1, b2 = b
    if not (0.0 <= a0 < _INF and 0.0 <= a1 < _INF and 0.0 <= a2 < _INF
            and 0.0 <= b0 < _INF and 0.0 <= b1 < _INF and 0.0 <= b2 < _INF):
        b = (b0, b1, b2)
        raise ValueError(f"root products must be finite and nonnegative, got {a} and {b}")
    d0, d1, d2 = abs(a0 - b0), abs(a1 - b1), abs(a2 - b2)  # the three rotations of b
    e0, e1, e2 = abs(a0 - b1), abs(a1 - b2), abs(a2 - b0)
    f0, f1, f2 = abs(a0 - b2), abs(a1 - b0), abs(a2 - b1)
    # each rotation's differences sorted, as math.hypot and _norm take them
    if d0 > d1: d0, d1 = d1, d0
    if d1 > d2: d1, d2 = d2, d1
    if d0 > d1: d0, d1 = d1, d0
    if e0 > e1: e0, e1 = e1, e0
    if e1 > e2: e1, e2 = e2, e1
    if e0 > e1: e0, e1 = e1, e0
    if f0 > f1: f0, f1 = f1, f0
    if f1 > f2: f1, f2 = f2, f1
    if f0 > f1: f0, f1 = f1, f0
    if q == 2.0:
        d, e, f = math.hypot(d0, d1, d2), math.hypot(e0, e1, e2), math.hypot(f0, f1, f2)
    else:
        d, e, f = _norm(d0, d1, d2, q), _norm(e0, e1, e2, q), _norm(f0, f1, f2, q)
    return d if d <= e and d <= f else e if e <= f else f


def continuity_bound(l: float, delta: float, q: float = 2.0) -> float:
    """Upper bound 3^(1/q) * sqrt(2 l delta) on the root-metric shift.

    Valid whenever two obtuse superbases with max vector length l differ
    vectorwise by at most delta; the factor is 1 at q = +inf.
    """
    q = _check_order(q)
    if not (0.0 <= l < math.inf and 0.0 <= delta < math.inf):  # False for NaN too
        raise ValueError("l and delta must be finite and nonnegative")
    return 3.0 ** (1.0 / q) * math.sqrt(2.0 * l * delta)


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
    3 times the best, so stopping never changes the result. For S outside
    (2^-800, 2^800) it is 2^-k times the distance of the superbases times
    2^k, whose largest coordinate is in [1/2, 1): no square over- or underflows.
    Each square is a product, exact under 2^k: the distance scales by 2^k bit for bit.
    """
    (ax, ay), (bx, by), (cx, cy) = v = b1.vectors()
    (px, py), (qx, qy), (rx, ry) = u = b2.vectors()
    total = ((ax * ax + ay * ay) + (bx * bx + by * by) + (cx * cx + cy * cy)
             + (px * px + py * py) + (qx * qx + qy * qy) + (rx * rx + ry * ry))
    if not 2.0 ** -800 < total < 2.0 ** 800:  # scaled copies of checked inputs, built unchecked
        k = -math.frexp(max(abs(c) for w in (*v, *u) for c in w))[1]
        b1, b2 = (tuple.__new__(Superbase2, [Vec2(math.ldexp(x, k), math.ldexp(y, k))
                                             for x, y in w]) for w in (v, u))
        return math.ldexp(superbase_distance_linf(b1, b2, allow_reflection), -k)
    mirrored = ((px, -py), (qx, -qy), (rx, -ry))
    bounds = []  # index 6m + n: mirror m (0 = u), relabelling _RELABELLINGS[n]
    # the mirror negates the y coordinates of u, here rebound in place
    for py, qy, ry in ((py, qy, ry), (-py, -qy, -ry)) if allow_reflection else ((py, qy, ry),):
        dpa, dpb, dpc = px * ax + py * ay, px * bx + py * by, px * cx + py * cy
        dqa, dqb, dqc = qx * ax + qy * ay, qx * bx + qy * by, qx * cx + qy * cy
        dra, drb, drc = rx * ax + ry * ay, rx * bx + ry * by, rx * cx + ry * cy
        xpa, xpb, xpc = px * ay - py * ax, px * by - py * bx, px * cy - py * cx
        xqa, xqb, xqc = qx * ay - qy * ax, qx * by - qy * bx, qx * cy - qy * cx
        xra, xrb, xrc = rx * ay - ry * ax, rx * by - ry * bx, rx * cy - ry * cx
        bounds += (total - 2.0 * math.hypot(dpa + dqb + drc, xpa + xqb + xrc),
                   total - 2.0 * math.hypot(dpa + drb + dqc, xpa + xrb + xqc),
                   total - 2.0 * math.hypot(dqa + dpb + drc, xqa + xpb + xrc),
                   total - 2.0 * math.hypot(dqa + drb + dpc, xqa + xrb + xpc),
                   total - 2.0 * math.hypot(dra + dpb + dqc, xra + xpb + xqc),
                   total - 2.0 * math.hypot(dra + dqb + dpc, xra + xqb + xpc))
    margin = 1e-9 * total
    best = _INF
    for n in sorted(range(len(bounds)), key=bounds.__getitem__):  # stable: ties keep order
        if bounds[n] - margin >= 3.0 * best:
            break
        um = u if n < 6 else mirrored
        i, j, k = _RELABELLINGS[n % 6]
        best = _aligned_sq(v, (um[i], um[j], um[k]), best)
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
    atan, atan2, copysign = math.atan, math.atan2, math.copysign
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    (u0x, u0y), (u1x, u1y), (u2x, u2y) = u
    (v0x, v0y), (v1x, v1y), (v2x, v2y) = v
    dot = 0.0 + (u0x * v0x + u0y * v0y) + (u1x * v1x + u1y * v1y) + (u2x * v2x + u2y * v2y)
    crs = 0.0 + (u0x * v0y - u0y * v0x) + (u1x * v1y - u1y * v1x) + (u2x * v2y - u2y * v2x)
    t0 = atan2(crs, dot)
    c0, s0 = cos(t0), sin(t0)
    terms = []
    for ux, uy, vx, vy in ((u0x, u0y, v0x, v0y), (u1x, u1y, v1x, v1y), (u2x, u2y, v2x, v2y)):
        wx, wy = c0 * ux - s0 * uy, s0 * ux + c0 * uy
        ex, ey = wx - vx, wy - vy
        terms.append((ex * ex + ey * ey, wx * wx + wy * wy - ex * wx - ey * wy, wx * ey - wy * ex))
    # s = pi also stands for the crossing at tan(s/2) = infinity
    offsets = [0.0, math.pi]
    for i, (e_i, p_i, q_i) in enumerate(terms):
        offsets.append(atan2(-q_i, p_i))
        for e_j, p_j, q_j in terms[i + 1:]:
            a, b, c = e_i - e_j + 4.0 * (p_i - p_j), 4.0 * (q_i - q_j), e_i - e_j
            m = max(abs(a), abs(b), abs(c))
            if m == 0.0:
                continue  # identical sinusoids
            a, b, c = a / m, b / m, c / m  # keeps b*b - 4ac in range
            disc = b * b - 4.0 * a * c
            if disc < 0.0:
                continue
            h = -0.5 * (b + copysign(sqrt(disc), b))
            for num, den in ((h, a), (c, h)):  # cancellation-free roots
                if den != 0.0:
                    offsets.append(2.0 * atan(num / den))
    best = bound
    for s in offsets:
        # direct subtraction: no cancellation near a perfect match. An angle
        # is dropped at its first misfit >= best: its largest cannot win
        c, sn = cos(t0 + s), sin(t0 + s)
        m0 = (dx := c * u0x - sn * u0y - v0x) * dx + (dy := sn * u0x + c * u0y - v0y) * dy
        if m0 >= best:
            continue
        m1 = (dx := c * u1x - sn * u1y - v1x) * dx + (dy := sn * u1x + c * u1y - v1y) * dy
        if m1 >= best:
            continue
        m2 = (dx := c * u2x - sn * u2y - v2x) * dx + (dy := sn * u2x + c * u2y - v2y) * dy
        if m2 >= best:
            continue
        best = m0 if m0 >= m1 and m0 >= m2 else m1 if m1 >= m2 else m2
    return best
