"""Seeded corpora with planted truth.

Every lattice starts from a chosen triple of root products and a chirality.
Its obtuse superbase is built here in closed form (never by the package under
test), rotated, and hidden behind an integer unimodular change of basis. The
package only ever sees the resulting record lines or basis numbers, all
written with ``.17g`` so that parsing them gives back the exact floats.

The truth of a ``basis`` record is recomputed exactly from the floats that were
written: the known unimodular matrix maps them back to the planted superbase
in rational arithmetic, so the rounding of the generator itself never counts
against the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# The package documents root products as tied (the lattice is achiral) when
# they differ by at most SIGN_TOL times the largest one. Signs are checked
# only where the truth is well clear of that band on either side.
SIGN_TOL = 1e-8
SIGN_MARGIN = 10.0


@dataclass(frozen=True)
class Truth:
    """Planted invariants of one lattice.

    ``roots`` holds the root products (r12, r01, r02) of a positively oriented
    obtuse superbase. ``orf`` is the oriented root form (smallest entry first,
    cyclic order kept; fully sorted when neutral) and ``sign`` the chirality,
    or ``None`` when the truth lies too close to the tie band to decide.
    """

    roots: tuple[float, float, float]
    orf: tuple[float, float, float] | None
    sign: str | None

    @property
    def sorted_roots(self) -> tuple[float, float, float]:
        return tuple(sorted(self.roots))

    @property
    def qt(self) -> tuple[float, float]:
        """Quotient-triangle point (x, y) of the sorted root products."""
        s0, s1, s2 = self.sorted_roots
        total = s0 + s1 + s2
        return 0.5 * (s2 - s1) / total, s0 / total


@dataclass(frozen=True)
class Item:
    """One generated input with its truth."""

    id: str
    line: str
    truth: Truth


def truth_from_roots(w) -> Truth:
    """Oriented form and sign of positively oriented root products ``w``."""
    w = tuple(float(v) for v in w)
    s0, s1, s2 = sorted(w)
    gap = min(s0, s1 - s0, s2 - s1) / s2
    if gap > SIGN_MARGIN * SIGN_TOL:
        k = w.index(s0)
        orf = w[k:] + w[:k]
        return Truth(w, orf, "positive" if orf[1] < orf[2] else "negative")
    if gap < SIGN_TOL / SIGN_MARGIN:
        return Truth(w, (s0, s1, s2), "neutral")
    return Truth(w, None, None)


def superbase_from_roots(r12: float, r01: float, r02: float):
    """Basis (v1, v2) of the obtuse superbase with the given root products.

    The superbase (-v1 - v2, v1, v2) has conorms p12 = r12^2, p01 = r01^2,
    p02 = r02^2 and det(v1, v2) > 0: v1 lies on the x axis with
    |v1|^2 = p01 + p12, v1 . v2 = -p12 and det(v1, v2)^2 =
    p01 p02 + p01 p12 + p02 p12.
    """
    p12, p01, p02 = r12 * r12, r01 * r01, r02 * r02
    l1 = math.sqrt(p01 + p12)
    area = math.sqrt(p01 * p02 + p01 * p12 + p02 * p12)
    return (l1, 0.0), (-p12 / l1, area / l1)


def rotate(v, angle: float):
    c, s = math.cos(angle), math.sin(angle)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def hide(v1, v2, m):
    """Rows of ``m`` (integers) applied to the basis (v1, v2)."""
    (a, b), (c, d) = m
    return (
        (a * v1[0] + b * v2[0], a * v1[1] + b * v2[1]),
        (c * v1[0] + d * v2[0], c * v1[1] + d * v2[1]),
    )


def f17(x: float) -> str:
    return format(x, ".17g")


def _exact_sqrt(p: Fraction) -> float:
    """Correctly scaled float square root of a positive rational of any size."""
    half = (p.numerator.bit_length() - p.denominator.bit_length()) // 2
    q = p / (Fraction(2) ** (2 * half)) if half >= 0 else p * (Fraction(2) ** (-2 * half))
    return math.ldexp(math.sqrt(float(q)), half)


def exact_roots(u1, u2, m) -> tuple[float, float, float]:
    """Root products of the lattice spanned by the written floats (u1, u2).

    ``m`` is the unimodular matrix that produced (u1, u2) from the planted
    superbase; its inverse brings the written basis back next to that
    superbase in exact arithmetic, where the conorms are read off directly.
    Raises ValueError if that superbase is no longer obtuse.
    """
    (a, b), (c, d) = m
    det = a * d - b * c
    inv = ((d * det, -b * det), (-c * det, a * det))
    fu1 = tuple(Fraction(x) for x in u1)
    fu2 = tuple(Fraction(x) for x in u2)
    w1 = tuple(inv[0][0] * fu1[i] + inv[0][1] * fu2[i] for i in range(2))
    w2 = tuple(inv[1][0] * fu1[i] + inv[1][1] * fu2[i] for i in range(2))
    dot = w1[0] * w2[0] + w1[1] * w2[1]
    p12 = -dot
    p01 = w1[0] * w1[0] + w1[1] * w1[1] + dot
    p02 = w2[0] * w2[0] + w2[1] * w2[1] + dot
    if min(p12, p01, p02) <= 0 or w1[0] * w2[1] - w1[1] * w2[0] <= 0:
        raise ValueError("hidden basis no longer maps to an obtuse superbase")
    return _exact_sqrt(p12), _exact_sqrt(p01), _exact_sqrt(p02)


def elementary(k: int, lower: bool):
    return ((1, 0), (k, 1)) if lower else ((1, k), (0, 1))


def matmul(m, n):
    return tuple(
        tuple(sum(m[i][t] * n[t][j] for t in range(2)) for j in range(2)) for i in range(2)
    )


SWAP = ((0, 1), (1, 0))


def chiral_roots(rng, lo: float, spread: float, sign: str):
    """Three well separated root products, oriented as ``sign``.

    Returns (r12, r01, r02) of a positively oriented superbase: a cyclic
    rotation of (a, b, c) for positive or (a, c, b) for negative lattices.
    """
    while True:
        a, b, c = sorted(float(v) for v in rng.uniform(lo, lo * spread, size=3))
        if min(a, b - a, c - b) > 1e-3 * c:
            break
    orf = (a, b, c) if sign == "positive" else (a, c, b)
    k = int(rng.integers(3))
    return orf[k:] + orf[:k]


def qt_uniform_roots(rng, scale: float, min_share: float):
    """Sorted root products whose QT point is uniform over the triangle."""
    while True:
        bary = np.sort(rng.dirichlet((1.0, 1.0, 1.0)))
        if bary[0] >= min_share:
            return tuple(float(v) * scale for v in bary)


def neutral_roots(rng, scale: float):
    """Isosceles (two equal products) or hexagonal (all equal) lattices."""
    a, b = sorted(rng.uniform(0.3, 1.0, size=2) * scale)
    shape = int(rng.integers(5))
    if shape == 0:
        return (b, b, b)
    return (a, b, b) if shape % 2 else (a, a, b)


def grid_corpus(seed: int, n: int) -> list[Item]:
    """Well-conditioned records of all four kinds for the QT density grid.

    Shares are fixed (40% basis, 25% cell2, 20% mono3, 15% ortho3); the hiding
    matrices are products of two unit shears, so reduction takes a few steps.
    About one lattice in ten is neutral (isosceles or hexagonal, some of them
    on the triangle's upper edge).
    """
    rng = np.random.default_rng([seed, 1])
    counts = {"basis": n * 40 // 100, "cell2": n * 25 // 100, "mono3": n * 20 // 100}
    counts["ortho3"] = n - sum(counts.values())
    kinds = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(kinds)
    items = []
    for i, kind in enumerate(kinds):
        rid = f"g{i:06d}"
        if kind == "ortho3":
            lengths = rng.uniform(2.0, 20.0, size=3)
            s0, s1 = sorted(lengths)[:2]
            truth = Truth((0.0, float(s0), float(s1)), (0.0, float(s0), float(s1)), "neutral")
            line = ",".join([rid, kind, *(f17(float(x)) for x in lengths)])
            items.append(Item(rid, line, truth))
            continue
        scale = float(rng.uniform(3.0, 15.0))
        if rng.random() < 0.1:
            s = neutral_roots(rng, scale)
            k = int(rng.integers(3))
            w = s[k:] + s[:k]
        else:
            s = qt_uniform_roots(rng, scale, 0.01)
            sign = "positive" if rng.random() < 0.5 else "negative"
            orf = s if sign == "positive" else (s[0], s[2], s[1])
            k = int(rng.integers(3))
            w = orf[k:] + orf[:k]
        v1, v2 = superbase_from_roots(*w)
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        v1, v2 = rotate(v1, angle), rotate(v2, angle)
        m = matmul(
            elementary(int(rng.integers(-1, 2)), bool(rng.integers(2))),
            elementary(int(rng.integers(-1, 2)), bool(rng.integers(2))),
        )
        if kind == "basis" and rng.random() < 0.5:
            m = matmul(SWAP, m)
        u1, u2 = hide(v1, v2, m)
        if kind == "basis":
            truth = truth_from_roots(exact_roots(u1, u2, m))
            line = ",".join([rid, kind, *(f17(x) for x in (*u1, *u2))])
        else:
            # det(m) = +1 here, so the cell angle in (0, 180) keeps the
            # orientation of the planted superbase
            a, b = math.hypot(*u1), math.hypot(*u2)
            gamma = math.degrees(
                math.atan2(u1[0] * u2[1] - u1[1] * u2[0], u1[0] * u2[0] + u1[1] * u2[1])
            )
            truth = truth_from_roots(w)
            if kind == "cell2":
                params = (a, b, gamma)
            else:
                params = (a, float(rng.uniform(3.0, 30.0)), b, gamma)
            line = ",".join([rid, kind, *(f17(x) for x in params)])
        items.append(Item(rid, line, truth))
    return items


def skewed_corpus(seed: int, n: int, k_range: tuple[float, float], extreme_share: float,
                  exponents: tuple[int, int]) -> list[Item]:
    """``basis`` records hidden by one large shear, plus extreme scales.

    Shear sizes are log-uniform on ``k_range``, drawn by stratified sampling
    (one draw per equal-probability stratum) so every seed gets the same
    spread of skews; reduction at this commit needs about |k| steps. The
    extreme slice puts mildly hidden lattices at scales of 10**e and 10**-e,
    ``e`` uniform on the closed integer range ``exponents``.
    """
    rng = np.random.default_rng([seed, 2])
    n_extreme = int(round(n * extreme_share))
    n_skew = n - n_extreme
    strata = (np.arange(n_skew) + rng.random(n_skew)) / n_skew
    k_lo, k_hi = k_range
    logs = math.log(k_lo) + strata * math.log(k_hi / k_lo)
    shears = np.maximum(1, np.round(np.exp(logs))).astype(np.int64)
    plan = [("skew", int(k)) for k in shears] + [("extreme", 0)] * n_extreme
    order = rng.permutation(len(plan))
    items = []
    for i, j in enumerate(order):
        what, k = plan[j]
        rid = f"s{i:06d}"
        sign = "positive" if rng.random() < 0.5 else "negative"
        w = chiral_roots(rng, 1.0, 4.0, sign)
        if what == "extreme":
            exponent = int(rng.integers(exponents[0], exponents[1] + 1))
            exponent *= 1 if rng.random() < 0.5 else -1
            scale = 10.0 ** exponent
            m = elementary(int(rng.integers(-2, 3)), bool(rng.integers(2)))
        else:
            scale = float(rng.uniform(1.0, 10.0))
            m = elementary(k if rng.random() < 0.5 else -k, bool(rng.integers(2)))
            m = matmul(m, elementary(int(rng.integers(-1, 2)), bool(rng.integers(2))))
        if rng.random() < 0.5:
            m = matmul(SWAP, m)
        w = tuple(r * scale for r in w)
        v1, v2 = superbase_from_roots(*w) if what == "skew" else _scaled_superbase(w, scale)
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        u1, u2 = hide(rotate(v1, angle), rotate(v2, angle), m)
        truth = truth_from_roots(exact_roots(u1, u2, m))
        line = ",".join([rid, "basis", *(f17(x) for x in (*u1, *u2))])
        items.append(Item(rid, line, truth))
    return items


def _scaled_superbase(w, scale: float):
    """superbase_from_roots for products far outside the float range of squares."""
    v1, v2 = superbase_from_roots(*(r / scale for r in w))
    return (v1[0] * scale, v1[1] * scale), (v2[0] * scale, v2[1] * scale)


@dataclass(frozen=True)
class Query:
    """One basis for the match loop; ``ref`` is the planted near duplicate."""

    basis: tuple[float, float, float, float]
    truth: Truth
    ref: int | None
    delta: float = 0.0
    length: float = 0.0


def match_corpus(seed: int, n_refs: int, n_queries: int, dup_share: float,
                 threshold: float):
    """References and queries for the closed-loop match workload.

    References are chiral lattices at least 3 * threshold apart in RM_inf.
    A fixed share of queries are near duplicates: a reference's obtuse
    superbase with every vector moved by at most delta, so their RM_q to it is
    at most the continuity bound 3^(1/q) sqrt(2 l delta) < threshold / 2. All
    other queries are at least 2 * threshold from every reference in RM_inf,
    so the client aligns exactly the planted duplicates. Returns
    (references, queries), both lists of Query.
    """
    rng = np.random.default_rng([seed, 3])
    refs: list[Query] = []
    ref_bases = []
    while len(refs) < n_refs:
        sign = "positive" if rng.random() < 0.5 else "negative"
        w = chiral_roots(rng, 1.0, 3.0, sign)
        if all(_rm_inf(truth_from_roots(w), r.truth) >= 3.0 * threshold for r in refs):
            v1, v2 = superbase_from_roots(*w)
            ref_bases.append((v1, v2))
            refs.append(_hidden_query(rng, v1, v2, None))
    n_dup = int(round(n_queries * dup_share))
    is_dup = np.zeros(n_queries, dtype=bool)
    is_dup[rng.choice(n_queries, size=n_dup, replace=False)] = True
    queries = []
    for i in range(n_queries):
        if is_dup[i]:
            j = int(rng.integers(n_refs))
            v1, v2 = ref_bases[j]
            vecs = (v1, v2, (-v1[0] - v2[0], -v1[1] - v2[1]))
            delta = 5e-5 * max(math.hypot(*v) for v in vecs)
            e1, e2 = _small(rng, 0.5 * delta), _small(rng, 0.5 * delta)
            p1 = (v1[0] + e1[0], v1[1] + e1[1])
            p2 = (v2[0] + e2[0], v2[1] + e2[1])
            moved = max(math.hypot(*e1), math.hypot(*e2),
                        math.hypot(e1[0] + e2[0], e1[1] + e2[1]))
            length = max(math.hypot(*v) for v in (*vecs, p1, p2, (p1[0] + p2[0], p1[1] + p2[1])))
            q = _hidden_query(rng, p1, p2, j)
            queries.append(Query(q.basis, q.truth, j, moved, length))
            continue
        while True:
            sign = "positive" if rng.random() < 0.5 else "negative"
            w = chiral_roots(rng, 0.8, 4.0, sign)
            if all(_rm_inf(truth_from_roots(w), r.truth) >= 2.0 * threshold for r in refs):
                break
        queries.append(_hidden_query(rng, *superbase_from_roots(*w), None))
    return refs, queries


def _hidden_query(rng, v1, v2, ref) -> Query:
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    m = matmul(
        elementary(int(rng.integers(-1, 2)), bool(rng.integers(2))),
        elementary(int(rng.integers(-1, 2)), bool(rng.integers(2))),
    )
    u1, u2 = hide(rotate(v1, angle), rotate(v2, angle), m)
    return Query((*u1, *u2), truth_from_roots(exact_roots(u1, u2, m)), ref)


def _small(rng, radius: float):
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    r = float(rng.uniform(0.0, radius))
    return (r * math.cos(ang), r * math.sin(ang))


def _rm_inf(a: Truth, b: Truth) -> float:
    return max(abs(x - y) for x, y in zip(a.sorted_roots, b.sorted_roots))
