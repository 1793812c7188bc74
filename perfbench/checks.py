"""Checks of the program's outputs against the planted truth.

Nothing here calls the package: every expected value comes from the
generator's closed forms in corpus.py or from the formulas of the paper
written out below.

Tolerances:
- root products: squared products may differ from the truth by REL_TOL times
  the largest squared product (squares, because a root product near zero is
  the square root of a small difference and loses digits);
- quotient-triangle coordinates and metric values: QT_TOL and RM_TOL, relative
  to the largest root product for the metrics;
- density grids: a point may land in another bin (or overflow) only if its
  true QT point lies within EDGE_TOL of a bin edge.
"""

from __future__ import annotations

import math

import numpy as np

from corpus import Truth

REL_TOL = 1e-8
QT_TOL = 1e-7
RM_TOL = 1e-6
EDGE_TOL = 1e-7


def roots_agree(got, want) -> bool:
    top = max(abs(v) for v in want)
    if not all(math.isfinite(g) for g in got):
        return False
    return all(abs((g / top) ** 2 - (w / top) ** 2) <= REL_TOL for g, w in zip(got, want))


def form_error(got, sign: str, truth: Truth) -> str | None:
    """Why an oriented triple and sign disagree with the truth, or None."""
    if truth.sign is None:
        return None if roots_agree(sorted(got), truth.sorted_roots) else "roots"
    if sign != truth.sign:
        return "sign"
    return None if roots_agree(got, truth.orf) else "roots"


def check_rootform_csv(text: str, items, skipped_ids) -> dict:
    """Rows of ``rootform --oriented`` against the truth.

    Every record must appear in input order unless the run reported it as
    skipped; a record both printed and skipped, or silently missing, is wrong.
    """
    lines = text.splitlines()
    wrong: dict[str, int] = {}
    if not lines or lines[0] != "id,r12,r01,r02,sign":
        return {"wrong": len(items), "wrong_by": {"header": len(items)}}
    rows = {}
    order = []
    for line in lines[1:]:
        parts = line.split(",")
        rows[parts[0]] = parts
        order.append(parts[0])
    expected_order = [it.id for it in items if it.id in rows]
    if order != expected_order:
        wrong["order"] = len(items)
    for it in items:
        parts = rows.get(it.id)
        if parts is None:
            if it.id not in skipped_ids:
                wrong["missing"] = wrong.get("missing", 0) + 1
            continue
        if it.id in skipped_ids:
            wrong["skipped_and_printed"] = wrong.get("skipped_and_printed", 0) + 1
            continue
        try:
            got = tuple(float(v) for v in parts[1:4])
            sign = parts[4]
        except (ValueError, IndexError):
            wrong["format"] = wrong.get("format", 0) + 1
            continue
        reason = form_error(got, sign, it.truth)
        if reason:
            wrong[reason] = wrong.get(reason, 0) + 1
    return {"wrong": sum(wrong.values()), "wrong_by": wrong}


def _bin(v: float, lo: float, hi: float, res: int):
    """The grid's floor rule: clamp the upper edge, None outside."""
    if not lo <= v <= hi:
        return None
    return min(int(math.floor((v - lo) / (hi - lo) * res)), res - 1)


def _candidates(x: float, y: float, res: int):
    """Bins a QT point may land in when moved by up to EDGE_TOL."""
    out = set()
    for dx in (-EDGE_TOL, 0.0, EDGE_TOL):
        for dy in (-EDGE_TOL, 0.0, EDGE_TOL):
            xx, yy = max(x + dx, 0.0), max(y + dy, 0.0)
            ix, iy = _bin(xx, 0.0, 0.5, res), _bin(yy, 0.0, 1.0 / 3.0, res)
            out.add(None if ix is None or iy is None else (ix, iy))
    return out


def parse_grid_csv(data: bytes, res: int) -> np.ndarray:
    """Counts[ix, iy] from the CSV (header row, then rows from the top y bin)."""
    lines = data.decode("ascii").splitlines()
    rows = np.array([[int(v) for v in line.split(",")] for line in lines[1:]], dtype=np.int64)
    if rows.shape != (res, res):
        raise ValueError(f"grid CSV has shape {rows.shape}, expected {(res, res)}")
    return rows[::-1].T.copy()


def parse_pgm(data: bytes, res: int) -> np.ndarray:
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or parts[1] != f"{res} {res}".encode():
        raise ValueError("bad PGM header")
    maxval = int(parts[2])
    dtype = ">u2" if maxval > 255 else np.uint8
    image = np.frombuffer(parts[3], dtype=dtype).reshape(res, res).astype(np.int64)
    return image[::-1].T.copy()


def check_grid(csv: bytes, pgm: bytes, items, skipped_ids, res: int) -> dict:
    """QT density grid against the truth binned here.

    Certain points must all be in their bin; every other difference must be
    explained by a point within EDGE_TOL of an edge, and cells plus overflow
    must add up to the records that were not skipped.
    """
    try:
        counts = parse_grid_csv(csv, res)
        image = parse_pgm(pgm, res)
    except ValueError as exc:
        return {"wrong": len(items), "wrong_by": {"format": len(items)}, "error": str(exc)}
    wrong: dict[str, int] = {}
    if counts.max(initial=0) <= 65535 and not np.array_equal(image, counts):
        wrong["pgm_differs"] = 1
    certain = np.zeros((res, res), dtype=np.int64)
    open_cells: set = set()
    n_open = 0
    n_open_overflow = 0
    certain_overflow = 0
    kept = 0
    for it in items:
        if it.id in skipped_ids:
            continue
        kept += 1
        cands = _candidates(*it.truth.qt, res)
        if len(cands) == 1:
            (cell,) = cands
            if cell is None:
                certain_overflow += 1
            else:
                certain[cell] += 1
            continue
        n_open += 1
        n_open_overflow += None in cands
        open_cells.update(c for c in cands if c is not None)
    missing = np.maximum(certain - counts, 0)
    extra = np.maximum(counts - certain, 0)
    stray = sum(int(extra[c]) for c in zip(*np.nonzero(extra)) if tuple(c) not in open_cells)
    if missing.sum():
        wrong["missing"] = int(missing.sum())
    if stray:
        wrong["stray"] = stray
    binned = int(counts.sum())
    overflow = kept - binned
    certain_total = int(certain.sum())
    if not (certain_total <= binned <= kept
            and certain_overflow <= overflow <= certain_overflow + n_open_overflow):
        wrong["conservation"] = 1
    return {"wrong": sum(wrong.values()), "wrong_by": wrong, "binned": binned,
            "overflow": overflow, "near_edge": n_open}


def _rm(a, b, q: float) -> float:
    d = [abs(x - y) for x, y in zip(a, b)]
    return max(d) if q == math.inf else math.sqrt(sum(v * v for v in d))


def rm_truth(a: Truth, b: Truth):
    """RM_inf, RM_2 (sorted products) and RM_2+ (minimum over cyclic rotations)."""
    sa, sb = a.sorted_roots, b.sorted_roots
    ob = b.orf
    rm_plus = min(_rm(a.orf, ob[k:] + ob[:k], 2.0) for k in range(3))
    return _rm(sa, sb, math.inf), _rm(sa, sb, 2.0), rm_plus


def continuity_bound(l: float, delta: float, q: float) -> float:
    """The paper's bound 3^(1/q) sqrt(2 l delta) on RM_q after moving vectors by delta."""
    factor = 1.0 if q == math.inf else 3.0 ** (1.0 / q)
    return factor * math.sqrt(2.0 * l * delta)


def _canonical(t: Truth):
    """Canonical obtuse superbase (v0, v1, v2) of sorted products, v1 on +x."""
    s0, s1, s2 = t.sorted_roots
    l1 = math.hypot(s0, s1)
    area = math.sqrt(s1 * s1 * s2 * s2 + s0 * s0 * (s1 * s1 + s2 * s2))
    flip = -1.0 if t.sign == "negative" else 1.0
    v1 = (l1, 0.0)
    v2 = (-s0 * s0 / l1, flip * area / l1)
    return ((-v1[0] - v2[0], -v1[1] - v2[1]), v1, v2)


def check_queries(results, refs, queries, threshold: float) -> dict:
    """First-pass results of the match loop against the truth."""
    wrong: dict[str, int] = {}
    failed_by: dict[str, int] = {}

    def bad(reason):
        wrong[reason] = wrong.get(reason, 0) + 1

    for q, res in zip(queries, results):
        if isinstance(res, str):
            failed_by[res] = failed_by.get(res, 0) + 1
            continue
        orf, sign, rms, qt, nearest, dist = res
        reason = form_error(tuple(orf), sign, q.truth)
        if reason:
            bad(reason)
            continue
        top = max(q.truth.sorted_roots)
        for ref, got in zip(refs, rms):
            want = rm_truth(q.truth, ref.truth)
            if any(abs(g - w) > RM_TOL * top for g, w in zip(got, want)):
                bad("metric")
                break
        x, y = q.truth.qt
        sx = -x if q.truth.sign == "negative" else x
        if any(abs(g - w) > QT_TOL for g, w in zip(qt, (x, y, sx))):
            bad("qt")
        if q.ref is None:
            if dist is not None or min(r[0] for r in rms) < threshold:
                bad("false_match")
            continue
        if nearest != q.ref or dist is None:
            bad("nearest")
            continue
        rm_inf, rm2, _ = rms[nearest]
        if rm_inf > continuity_bound(q.length, q.delta, math.inf) or \
                rm2 > continuity_bound(q.length, q.delta, 2.0):
            bad("continuity_bound")
        a = _canonical(q.truth)
        b = _canonical(refs[nearest].truth)
        l_sb = max(math.hypot(*v) for v in (*a, *b))
        identity = max(math.hypot(u[0] - v[0], u[1] - v[1]) for u, v in zip(a, b))
        if not (rm_inf * rm_inf / (2.0 * l_sb) - RM_TOL * l_sb <= dist <= identity + RM_TOL * l_sb):
            bad("alignment")
    return {"wrong": sum(wrong.values()), "wrong_by": wrong, "failed_by": failed_by}
