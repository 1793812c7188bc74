"""Shared random generators for the test suite.

Everything takes an explicit numpy Generator so each test pins its own seed.
"""

from __future__ import annotations

import io
import math
import sys
from array import array
from fractions import Fraction
from itertools import permutations

import numpy as np

from rootforms import (
    Basis2,
    LatticeSign,
    ObtuseSuperbase,
    RootForm,
    Superbase2,
    Vec2,
    conorms,
    reconstruct_superbase,
    vonorms,
)
from rootforms.errors import DegenerateLattice, ParseError
from rootforms.lattice import (NEG_TOL, SIGN_TOL, OrientedRootForm, _oriented_root_products,
                               lagrange_gauss, oriented_root_products)
from rootforms.projection import QTPoint, qt_coords
from rootforms.records import (KINDS, DensityGrid, GridSpec, LatticeRecord, basis_coords,
                               format_number)
from rootforms.voronoi import TIE_TOL, VoronoiVector

ULP = 2.0 ** -52

# The characters besides "\n" at which str.splitlines breaks a line. A record
# line ends only at "\n", so each of these stays inside its line ("\r" only
# when no "\n" follows it).
LINE_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]


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
# ORACLE_MAX_FLIPS raise OracleStepCap here; elsewhere its root forms must
# agree with the exact reduction below as closely as the kernel's do.
ORACLE_MAX_FLIPS = 1000


class OracleStepCap(Exception):
    """The flip-rule oracle gave up after ORACLE_MAX_FLIPS flips."""


_ORACLE_FLIPS = {
    "p12": lambda v0, v1, v2: (v1 - v2, -v1, v2),
    "p01": lambda v0, v1, v2: (-v0, v1, v0 - v1),
    "p02": lambda v0, v1, v2: (-v0, v0 - v2, v2),
}


def oracle_reduce_to_obtuse(s: Superbase2, neg_tol: float = NEG_TOL) -> ObtuseSuperbase:
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
        if steps >= ORACLE_MAX_FLIPS:
            raise OracleStepCap(f"no obtuse superbase after {steps} flips")
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


# Reference root metrics: the form rootforms.metrics had before each call ran
# in one frame, with _check_order, sorted() and one _lq call per difference
# triple. The one-frame metrics must return the same bits.
_REF_PERMS_A3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def reference_check_order(q: float) -> float:
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise ValueError(f"Minkowski order must be >= 1, got {q}")
    return q


def _reference_lq(d0: float, d1: float, d2: float, q: float) -> float:
    if q == math.inf:
        return max(d0, d1, d2)
    d0, d1, d2 = sorted((d0, d1, d2))
    if q == 1.0:
        return d0 + d1 + d2
    if q == 2.0:
        return math.hypot(d0, d1, d2)
    if d2 == 0.0:
        return 0.0
    return d2 * ((d0 / d2) ** q + (d1 / d2) ** q + 1.0) ** (1.0 / q)


def reference_root_metric(a, b, q: float = 2.0) -> float:
    q = reference_check_order(q)
    a0, a1, a2 = sorted(a)
    b0, b1, b2 = sorted(b)
    if not (0.0 <= a0 <= a1 <= a2 < math.inf and 0.0 <= b0 <= b1 <= b2 < math.inf):
        raise ValueError(f"root products must be finite and nonnegative, got {a} and {b}")
    return _reference_lq(abs(a0 - b0), abs(a1 - b1), abs(a2 - b2), q)


def reference_root_metric_oriented(a, b, q: float = 2.0) -> float:
    q = reference_check_order(q)
    a0, a1, a2 = a
    b0, b1, b2 = b = tuple(b)
    if not (0.0 <= a0 < math.inf and 0.0 <= a1 < math.inf and 0.0 <= a2 < math.inf
            and 0.0 <= b0 < math.inf and 0.0 <= b1 < math.inf and 0.0 <= b2 < math.inf):
        raise ValueError(f"root products must be finite and nonnegative, got {a} and {b}")
    best = math.inf
    for i, j, k in _REF_PERMS_A3:
        d = _reference_lq(abs(a0 - b[i]), abs(a1 - b[j]), abs(a2 - b[k]), q)
        if d < best:
            best = d
    return best


# Reference exact alignment: superbase_distance_linf and _aligned_sq as they
# were before the relabellings were ranked by a lower bound, running all 12
# in itertools.permutations order. The ranked search must return the same bits.


def reference_superbase_distance_linf(b1, b2, allow_reflection: bool = True) -> float:
    v = [(w.x, w.y) for w in b1.vectors()]
    u = [(w.x, w.y) for w in b2.vectors()]
    mirrors = (u, [(x, -y) for x, y in u]) if allow_reflection else (u,)
    best = math.inf
    for um in mirrors:
        for perm in permutations(um):
            best = _reference_aligned_sq(v, perm, best)
    return math.sqrt(best)


def _reference_aligned_sq(v, u, bound: float) -> float:
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
        return bound
    offsets = [0.0, math.pi]
    for i, (e_i, p_i, q_i) in enumerate(terms):
        offsets.append(math.atan2(-q_i, p_i))
        for e_j, p_j, q_j in terms[i + 1:]:
            a, b, c = e_i - e_j + 4.0 * (p_i - p_j), 4.0 * (q_i - q_j), e_i - e_j
            m = max(abs(a), abs(b), abs(c))
            if m == 0.0:
                continue
            a, b, c = a / m, b / m, c / m
            disc = b * b - 4.0 * a * c
            if disc < 0.0:
                continue
            h = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            for num, den in ((h, a), (c, h)):
                if den != 0.0:
                    offsets.append(2.0 * math.atan(num / den))
    best = bound
    for s in offsets:
        c, sn = math.cos(t0 + s), math.sin(t0 + s)
        worst = max(
            (c * ux - sn * uy - vx) ** 2 + (sn * ux + c * uy - vy) ** 2
            for (ux, uy), (vx, vy) in zip(u, v)
        )
        if worst < best:
            best = worst
    return best


# Reference Voronoi enumeration: voronoi_vectors as it was before each class
# got its own search ball, enumerating every lattice vector up to 4 times the
# longer reduced basis vector, O(aspect) of them. The per-class search must
# return the same list.


def reference_voronoi_vectors(b: Basis2):
    (x1, y1, x2, y2), (m1, m2), _ = lagrange_gauss(b.v1.x, b.v1.y, b.v2.x, b.v2.y)
    u1, u2 = Vec2(x1, y1), Vec2(x2, y2)
    radius = 4.0 * max(u1.norm(), u2.norm())
    det = abs(u1.cross(u2))
    amax = int(math.floor(radius * u2.norm() / det)) + 1
    bmax = int(math.floor(radius * u1.norm() / det)) + 1
    candidates = {(1, 0): [], (0, 1): [], (1, 1): []}
    for a in range(-amax, amax + 1):
        for c in range(-bmax, bmax + 1):
            cls = (a & 1, c & 1)
            if cls == (0, 0):
                continue
            w = Vec2(a * u1.x + c * u2.x, a * u1.y + c * u2.y)
            n = w.norm()
            if n <= radius:
                candidates[cls].append((n, a, c, w))
    out = []
    for cls in ((1, 0), (0, 1), (1, 1)):
        nmin = min(m[0] for m in candidates[cls])
        members = [m for m in candidates[cls] if m[0] <= nmin * (1.0 + TIE_TOL)]
        coeff_set = {(a, c) for _, a, c, _ in members}
        strict = len(coeff_set) == 2 and all((-a, -c) in coeff_set for a, c in coeff_set)
        for _, a, c, w in sorted(members, key=lambda m: (m[1], m[2])):
            out.append(VoronoiVector((a * m1[0] + c * m2[0], a * m1[1] + c * m2[1]), w, strict))
    return out


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


# The record parser, binning, QT shares and grid emitters as they were before
# the parser got its one-comparison fast path, qt_coords its inline shares,
# accumulate_grid its unpacked spec and the emitters their one buffer of the
# file's size. The package must give exactly their results, and their errors
# by class, line and reason.


def reference_parse_record_line(text: str, line: int) -> LatticeRecord | None:
    body = text.partition("#")[0].strip()
    if not body:
        return None
    fields = body.split(",")
    if len(fields) < 2:
        raise ParseError(line, "expected id,kind,params...")
    rec_id, kind, raw = fields[0].strip(), fields[1].strip(), fields[2:]
    if not rec_id:
        raise ParseError(line, "empty record id")
    arity = KINDS.get(kind)
    if arity is None:
        raise ParseError(line, f"unknown kind {kind!r}")
    if len(raw) != arity:
        raise ParseError(line, f"kind {kind!r} takes {arity} parameters, got {len(raw)}")
    try:
        params = tuple(map(float, raw))
    except ValueError:
        raw = [f.strip() for f in raw]
        try:
            params = tuple(map(float, raw))
        except ValueError:
            raise ParseError(line, f"non-numeric parameter in {raw}") from None
    if not all(map(math.isfinite, params)):
        raise ParseError(line, "non-finite parameter")

    if kind == "cell2":
        _reference_check_lengths(params[:2], line)
        _reference_check_angle(params[2], line)
    elif kind == "ortho3":
        _reference_check_lengths(params, line)
    elif kind == "mono3":
        _reference_check_lengths(params[:3], line)
        _reference_check_angle(params[3], line)
    return LatticeRecord(rec_id, kind, params, line)


def _reference_check_lengths(values, line: int) -> None:
    for v in values:
        if v <= 0.0:
            raise ParseError(line, f"nonpositive length {v:g}")


def _reference_check_angle(angle: float, line: int) -> None:
    if not 0.0 < angle < 180.0:
        raise ParseError(line, f"angle {angle:g} outside (0, 180) degrees")


def reference_record_forms(rec: LatticeRecord):
    """cli._record_forms through the public kernel entry."""
    _, orf, sign, _ = oriented_root_products(*basis_coords(rec))
    return rec.id, orf, sign


def reference_shares(a: float, b: float, c: float) -> tuple[float, float, float]:
    total = a + b + c
    if not 0.0 < total < math.inf:
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise ValueError(f"non-finite root product in {(a, b, c)}")
        if total <= 0.0:
            raise DegenerateLattice("root products sum to zero")
        a, b, c = 0.25 * a, 0.25 * b, 0.25 * c
        total = a + b + c
    return a / total, b / total, c / total


def reference_qt_coords(r12: float, r01: float, r02: float) -> tuple[float, float]:
    b12, b01, b02 = reference_shares(r12, r01, r02)
    return 0.5 * (b02 - b01), min(b12, 1.0 / 3.0)


# Reference orientation and QT point: oriented_root_form and
# to_quotient_triangle_oriented as they were before each ran in one frame,
# building their results through the named-tuple constructors, sorted() and
# the LatticeSign class attribute. The one-frame forms must return the same
# bits and types, and raise the same errors.


def reference_oriented_root_form(b: Basis2):
    _, w, sign, _ = _oriented_root_products(*b.v1, *b.v2)
    return OrientedRootForm(*w), sign


def reference_to_quotient_triangle_oriented(orf, sign: LatticeSign) -> QTPoint:
    x, y = qt_coords(*sorted(orf))
    return QTPoint(x, y, -x if sign is LatticeSign.NEGATIVE else x)


def reference_accumulate_grid(points, spec: GridSpec) -> DensityGrid:
    res = spec.resolution
    counts: dict[int, int] = {}
    overflow = 0
    x_span = spec.x_max - spec.x_min
    y_span = spec.y_max - spec.y_min
    for x, y in points:
        if not (spec.x_min <= x <= spec.x_max and spec.y_min <= y <= spec.y_max):
            overflow += 1
            continue
        ix = min(int(math.floor((x - spec.x_min) / x_span * res)), res - 1)
        iy = min(int(math.floor((y - spec.y_min) / y_span * res)), res - 1)
        k = (res - 1 - iy) * res + ix
        counts[k] = counts.get(k, 0) + 1
    return DensityGrid(spec, counts, overflow)


def reference_emit_grid(grid: DensityGrid, fmt: str) -> bytes:
    return {"csv": _reference_emit_csv, "pgm": _reference_emit_pgm}[fmt](grid)


def _reference_emit_csv(grid: DensityGrid) -> bytes:
    s = grid.spec
    res = s.resolution
    header = [format_number(v) for v in (s.x_min, s.x_max, s.y_min, s.y_max)] + [str(res)]
    row = b"0," * (res - 1) + b"0\n"
    body = bytearray(len(row) * res)
    for start in range(0, len(body), len(row)):
        body[start:start + len(row)] = row
    wide = []
    for k, c in grid.counts.items():
        if 0 <= c < 10:
            body[2 * k] = 48 + c
        else:
            wide.append(k)
    out, view, start = io.BytesIO(), memoryview(body), 0
    out.write(",".join(header).encode("ascii") + b"\n")
    for k in sorted(wide):
        out.write(view[start:2 * k])
        out.write(str(grid.counts[k]).encode("ascii"))
        start = 2 * k + 1
    out.write(view[start:])
    return out.getvalue()


def _reference_emit_pgm(grid: DensityGrid) -> bytes:
    res = grid.spec.resolution
    max_count = max(grid.counts.values(), default=0)
    maxval = min(65535, max(max_count, 1))
    scale = maxval / max_count if max_count > maxval else None
    image = bytearray(res * res if maxval <= 255 else 2 * res * res)
    for k, c in grid.counts.items():
        if maxval <= 255:
            image[k] = c
        else:
            v = c if scale is None else round(c * scale)
            image[2 * k] = v >> 8
            image[2 * k + 1] = v & 255
    return f"P5\n{res} {res}\n{maxval}\n".encode("ascii") + image
