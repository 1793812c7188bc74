"""Shared random generators for the test suite.

Everything takes an explicit numpy Generator so each test pins its own seed.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction

import numpy as np

from rootforms import (
    Basis2,
    IterationLimitExceeded,
    LatticeSign,
    ObtuseSuperbase,
    RootForm,
    Superbase2,
    Vec2,
    conorms,
    reconstruct_superbase,
    vonorms,
)
from rootforms.lattice import MAX_ITER, NEG_TOL, SIGN_TOL
from rootforms.records import GridSpec, format_number

ULP = 2.0 ** -52


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_basis(rng, scale: float = 1.0, max_cond: float = 1e3) -> Basis2:
    """Gaussian random basis, resampled until reasonably conditioned."""
    while True:
        m = rng.normal(0.0, scale, size=(2, 2))
        if np.linalg.cond(m) <= max_cond:
            return Basis2(Vec2(m[0, 0], m[0, 1]), Vec2(m[1, 0], m[1, 1]))


def random_unimodular(rng, shears: int = 4, kmax: int = 5) -> np.ndarray:
    """Random integer matrix with determinant +-1 (product of shears/swaps)."""
    m = np.eye(2, dtype=np.int64)
    for _ in range(shears):
        k = int(rng.integers(-kmax, kmax + 1))
        if rng.random() < 0.5:
            m = m @ np.array([[1, k], [0, 1]], dtype=np.int64)
        else:
            m = m @ np.array([[1, 0], [k, 1]], dtype=np.int64)
        if rng.random() < 0.3:
            m = m @ np.array([[0, 1], [1, 0]], dtype=np.int64)
    return m


def apply_unimodular(b: Basis2, m: np.ndarray) -> Basis2:
    v1 = Vec2(m[0, 0] * b.v1.x + m[0, 1] * b.v2.x, m[0, 0] * b.v1.y + m[0, 1] * b.v2.y)
    v2 = Vec2(m[1, 0] * b.v1.x + m[1, 1] * b.v2.x, m[1, 0] * b.v1.y + m[1, 1] * b.v2.y)
    return Basis2(v1, v2)


def rotated_basis(b: Basis2, angle: float) -> Basis2:
    return Basis2(b.v1.rotated(angle), b.v2.rotated(angle))


def reflected_basis(b: Basis2) -> Basis2:
    """Mirror across the y axis (x -> -x)."""
    return Basis2(Vec2(-b.v1.x, b.v1.y), Vec2(-b.v2.x, b.v2.y))


def random_root_form(rng, lo: float = 0.2, hi: float = 3.0) -> RootForm:
    vals = sorted(rng.uniform(lo, hi, size=3))
    return RootForm(*vals)


def random_oriented_form(rng, lo: float = 0.2, hi: float = 3.0):
    """Cyclic-canonical triple: smallest first, random order of the rest."""
    a, b, c = sorted(rng.uniform(lo, hi, size=3))
    return (a, b, c) if rng.random() < 0.5 else (a, c, b)


def random_obtuse_superbase(
    rng,
    conorm_lo: float = 0.1,
    conorm_hi: float = 3.0,
    scale: float = 1.0,
) -> ObtuseSuperbase:
    """Random strict obtuse superbase in general position."""
    p = np.sort(rng.uniform(conorm_lo, conorm_hi, size=3)) * scale * scale
    rf = RootForm(*(math.sqrt(v) for v in p))
    sign = LatticeSign.NEGATIVE if rng.random() < 0.5 else LatticeSign.POSITIVE
    base = reconstruct_superbase(rf, sign)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return ObtuseSuperbase(
        base.v0.rotated(angle), base.v1.rotated(angle), base.v2.rotated(angle)
    )


def perturbed_superbase(rng, s: Superbase2, delta: float):
    """Perturb v1 and v2 by vectors of norm <= delta/2, rebuild v0.

    Returns (perturbed superbase, actual max vector deviation).
    """
    def noise():
        ang = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.0, 0.5 * delta)
        return Vec2(r * math.cos(ang), r * math.sin(ang))

    e1, e2 = noise(), noise()
    v1 = s.v1 + e1
    v2 = s.v2 + e2
    v0 = -(v1 + v2)
    actual = max(e1.norm(), e2.norm(), (e1 + e2).norm())
    return Superbase2(v0, v1, v2), actual


# Reference reduction by the flip rule that rootforms.lattice used before it
# switched to Lagrange-Gauss: negate one vector of the most negative conorm's
# pair and rebuild the third, building and validating a Superbase2 at every
# step. Its step count grows linearly with skew, so bases sheared past about
# MAX_ITER raise IterationLimitExceeded here; elsewhere its root forms must
# agree with the exact reduction below as closely as the kernel's do.
_ORACLE_FLIPS = {
    "p12": lambda v0, v1, v2: (v1 - v2, -v1, v2),
    "p01": lambda v0, v1, v2: (-v0, v1, v0 - v1),
    "p02": lambda v0, v1, v2: (-v0, v0 - v2, v2),
}


def oracle_reduce_to_obtuse(
    s: Superbase2, neg_tol: float = NEG_TOL, max_iter: int = MAX_ITER
) -> ObtuseSuperbase:
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    cur = s
    steps = 0
    while True:
        best_val = -(neg_tol * max(vonorms(cur)))
        pair = None
        for name, val in zip(("p12", "p01", "p02"), conorms(cur)):
            if val < best_val:
                pair, best_val = name, val
        if pair is None:
            break
        if steps >= max_iter:
            raise IterationLimitExceeded(
                f"reduction exceeded {max_iter} steps; input is numerically pathological"
            )
        cur = Superbase2(*_ORACLE_FLIPS[pair](cur.v0, cur.v1, cur.v2))
        steps += 1
    return ObtuseSuperbase(cur.v0, cur.v1, cur.v2, reduction_steps=steps)


# Exact reduction for rational inputs. Every float is a rational number, so
# running Lagrange-Gauss and the final sign flip on Fractions gives an obtuse
# superbase of exactly the lattice a float basis spans, with no rounding;
# only the last square roots are rounded, to within one ulp.


def _sqrt_fraction(c: Fraction) -> float:
    """sqrt(c) for a Fraction c >= 0, within one ulp."""
    if c <= 0:
        return 0.0
    n, d = c.numerator, c.denominator
    k = max(0, (d.bit_length() - n.bit_length() + 130) // 2)
    return float(Fraction(math.isqrt((n << (2 * k)) // d), 1 << k))


def exact_obtuse_superbase(b: Basis2):
    """Obtuse superbase (v0, v1, v2) of the lattice of b, as Fraction pairs."""
    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1]

    u1 = (Fraction(b.v1.x), Fraction(b.v1.y))
    u2 = (Fraction(b.v2.x), Fraction(b.v2.y))
    if dot(u1, u1) > dot(u2, u2):
        u1, u2 = u2, u1
    while True:
        t = round(dot(u1, u2) / dot(u1, u1))
        u2 = (u2[0] - t * u1[0], u2[1] - t * u1[1])
        if dot(u2, u2) >= dot(u1, u1):
            break
        u1, u2 = u2, u1
    if dot(u1, u2) > 0:
        u2 = (-u2[0], -u2[1])
    v0 = (-u1[0] - u2[0], -u1[1] - u2[1])
    assert -dot(u1, u2) >= 0 and -dot(v0, u1) >= 0 and -dot(v0, u2) >= 0
    return v0, u1, u2


def exact_oriented_roots(b: Basis2) -> tuple[float, float, float]:
    """Root products of b's lattice, smallest first, then in the cyclic order
    of a positively oriented obtuse superbase; each within one ulp."""
    v0, v1, v2 = exact_obtuse_superbase(b)
    c = [
        -(v1[0] * v2[0] + v1[1] * v2[1]),
        -(v0[0] * v1[0] + v0[1] * v1[1]),
        -(v0[0] * v2[0] + v0[1] * v2[1]),
    ]
    if v1[0] * v2[1] - v1[1] * v2[0] < 0:
        c[1], c[2] = c[2], c[1]
    k = c.index(min(c))
    return tuple(_sqrt_fraction(x) for x in c[k:] + c[:k])


def exact_sign_outside_band(roots, err: float):
    """Sign of exact oriented roots, or None when a float error of err in
    each product could move a neutrality test across the SIGN_TOL band."""
    a, m, c = sorted(roots)
    tol = SIGN_TOL * c
    gaps = (a, m - a, c - m)
    if any(abs(g - tol) <= 3.0 * err for g in gaps):
        return None
    if min(gaps) <= tol:
        return LatticeSign.NEUTRAL
    return LatticeSign.POSITIVE if roots[1] < roots[2] else LatticeSign.NEGATIVE


def condition_number(b: Basis2) -> float:
    """kappa = max(|v1|^2, |v2|^2) / |det|: how skewed the basis is."""
    return max(b.v1.norm_sq(), b.v2.norm_sq()) / abs(b.det)


# Reference alignment for rootforms.metrics.superbase_distance_linf: the
# original sampled search, an angle grid refined by golden-section search.
# Its result is an upper bound on the true minimum; the closed form must
# never exceed it by more than rounding and may undercut it only slightly.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_PERMS_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


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


def oracle_superbase_distance_linf(
    b1: ObtuseSuperbase,
    b2: ObtuseSuperbase,
    samples: int = 720,
    allow_reflection: bool = True,
) -> float:
    v = np.array([(w.x, w.y) for w in b1.vectors()])
    u = np.array([(w.x, w.y) for w in b2.vectors()])

    reflections = (False, True) if allow_reflection else (False,)
    branches = []
    for reflect in reflections:
        um = u * np.array([1.0, -1.0]) if reflect else u
        for perm in _PERMS_S3:
            branches.append(um[list(perm)])
    up_all = np.stack(branches)  # (nb, 3, 2)

    # |R(u) - v|^2 = A - B cos(t) - C sin(t) per matched pair
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
        local = _golden_min(worst_sq, t0 - step, t0 + step, 1e-10)
        if local < best:
            best = local
    return math.sqrt(max(best, 0.0))


# The dense density grid that records.accumulate_grid and records.emit_grid
# kept before grids stored occupied pixels only: a res x res list of lists,
# counts[ix][iy], transposed into image rows for each emitter. The sparse grid
# must emit exactly these bytes.


def oracle_grid_bytes(points, spec: GridSpec) -> tuple[bytes, bytes, int]:
    """(CSV bytes, PGM bytes, overflow count) of the points on a dense grid."""
    res = spec.resolution
    counts = [[0] * res for _ in range(res)]
    overflow = 0
    x_span = spec.x_max - spec.x_min
    y_span = spec.y_max - spec.y_min
    for x, y in points:
        if not (spec.x_min <= x <= spec.x_max and spec.y_min <= y <= spec.y_max):
            overflow += 1
            continue
        ix = min(int(math.floor((x - spec.x_min) / x_span * res)), res - 1)
        iy = min(int(math.floor((y - spec.y_min) / y_span * res)), res - 1)
        counts[ix][iy] += 1
    rows = list(zip(*counts))[::-1]  # row 0 is the largest y bin

    header = [format_number(v) for v in (spec.x_min, spec.x_max, spec.y_min, spec.y_max)]
    lines = [",".join(header + [str(res)])]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    csv = ("\n".join(lines) + "\n").encode("ascii")

    max_count = max(map(max, counts), default=0)
    maxval = min(65535, max(max_count, 1))
    if max_count > maxval:  # round() takes ties to even
        rows = [[round(c * (maxval / max_count)) for c in row] for row in rows]
    pgm = f"P5\n{res} {res}\n{maxval}\n".encode("ascii")
    if maxval <= 255:
        pgm += b"".join(map(bytes, rows))
    else:
        image = array("H", (c for row in rows for c in row))
        if sys.byteorder == "little":
            image.byteswap()  # PGM stores 16-bit samples big-endian
        pgm += image.tobytes()
    return csv, pgm, overflow
