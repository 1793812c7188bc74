"""Distances between lattice isometry classes.

Root metrics compare root-product triples with a Minkowski L_q norm,
minimised over entry permutations: all six for the plain metric, the three
cyclic ones for the orientation-preserving metric. The superbase distance is
the minimax vector alignment over orthogonal maps and superbase symmetries,
approximated by an angle grid plus golden-section refinement (the result is
an upper bound on the true minimum).

q is any real >= 1; math.inf selects the max norm.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .lattice import ObtuseSuperbase

_PERMS_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_PERMS_A3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# Angular tolerance of the golden-section refinement, in radians.
ANGLE_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _min_over_perms(
    a: Sequence[float], b: Sequence[float], q: float, perms: Iterable[tuple[int, int, int]]
) -> float:
    a0, a1, a2 = a
    best = math.inf
    for i, j, k in perms:
        d = _lq(abs(a0 - b[i]), abs(a1 - b[j]), abs(a2 - b[k]), q)
        if d < best:
            best = d
    return best


def root_metric(a: Sequence[float], b: Sequence[float], q: float = 2.0) -> float:
    """Distance between isometry classes given by root-product triples.

    Inputs are canonicalised by sorting, after which the identity permutation
    already attains the minimum for every L_q; the minimum over all six
    permutations is still taken defensively.
    """
    q = _check_order(q)
    return _min_over_perms(sorted(a), sorted(b), q, _PERMS_S3)


def root_metric_oriented(a: Sequence[float], b: Sequence[float], q: float = 2.0) -> float:
    """Distance between oriented classes: minimum over cyclic rotations only.

    Inputs are oriented root forms (or any cyclic representatives); they are
    deliberately not sorted, since sorting would erase chirality.
    """
    q = _check_order(q)
    return _min_over_perms(tuple(a), tuple(b), q, _PERMS_A3)


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


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    """Minimum value of a unimodal-ish f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return min(fc, fd)


def superbase_distance_linf(
    b1: ObtuseSuperbase,
    b2: ObtuseSuperbase,
    samples: int = 720,
    allow_reflection: bool = True,
) -> float:
    """Minimax vector alignment distance between two obtuse superbases.

    Minimises max_i |R(u_i) - v_i| over rotations R (plus reflections when
    allowed) and over the superbase symmetries: all relabellings of the three
    vectors, with the central symmetry covered by the half-turn rotation.
    The rotation angle is optimised on a coarse grid of ``samples`` angles
    followed by golden-section refinement to ANGLE_TOL radians, so the result
    is an upper bound on the exact minimum.
    """
    if samples < 8:
        raise ValueError("samples must be >= 8")
    import numpy as np  # deferred: the other metrics and the CLI never need it
    v = np.array([(w.x, w.y) for w in b1.vectors()])
    u = np.array([(w.x, w.y) for w in b2.vectors()])

    reflections = (False, True) if allow_reflection else (False,)
    branches = []
    for reflect in reflections:
        um = u * np.array([1.0, -1.0]) if reflect else u
        for perm in _PERMS_S3:
            branches.append(um[list(perm)])
    up_all = np.stack(branches)  # (nb, 3, 2)

    # |R(u) - v|^2 = A - B cos(t) - C sin(t) per matched pair; scan all
    # branches and angles in one shot.
    a_c = np.sum(up_all * up_all, axis=2) + np.sum(v * v, axis=1)[None, :]
    b_c = 2.0 * np.sum(up_all * v[None, :, :], axis=2)
    c_c = 2.0 * (up_all[:, :, 0] * v[None, :, 1] - up_all[:, :, 1] * v[None, :, 0])
    grid = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    cos_g, sin_g = np.cos(grid), np.sin(grid)
    worst = (
        a_c[:, None, :]
        - cos_g[None, :, None] * b_c[:, None, :]
        - sin_g[None, :, None] * c_c[:, None, :]
    ).max(axis=2)  # (nb, samples)

    ks = np.argmin(worst, axis=1)
    grid_best = np.sqrt(np.maximum(worst[np.arange(len(branches)), ks], 0.0))
    step = 2.0 * math.pi / samples
    # the objective's angle slope is at most the longest vector length, so a
    # branch whose grid minimum exceeds the global one by more than a step's
    # travel cannot contain the true minimum
    slack = max(np.linalg.norm(u, axis=1)) * step * 1.0000001
    best = math.inf
    for bi in np.argsort(grid_best):
        if grid_best[bi] - slack > math.sqrt(max(best, 0.0)):
            break
        up = up_all[bi]

        def worst_sq(t, up=up):
            # direct subtraction: no cancellation near a perfect match
            c, s = math.cos(t), math.sin(t)
            return max(
                (c * up[i, 0] - s * up[i, 1] - v[i, 0]) ** 2
                + (s * up[i, 0] + c * up[i, 1] - v[i, 1]) ** 2
                for i in range(3)
            )

        t0 = grid[ks[bi]]
        local = _golden_min(worst_sq, t0 - step, t0 + step, ANGLE_TOL)
        if local < best:
            best = local
    return math.sqrt(max(best, 0.0))
