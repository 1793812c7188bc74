"""The match_queries client: one caller, closed loop, public scalar API only.

For each query basis the client computes its oriented root form, RM_inf and
RM_2 and the oriented RM_2+ to every reference, and its quotient-triangle
point. Only when the nearest reference by RM_inf is closer than THRESHOLD
does it reconstruct the query's canonical superbase and align it with that
reference. The functions come from an ``api`` namespace so that the traced
run can pass wrapped versions of the same calls.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from types import SimpleNamespace

from tracing import quantile

THRESHOLD = 0.1
# Queries between two calls of the calibration kernel (about 60 ms of queries).
CAL_EVERY = 200

# (layer, name) of the package functions the client calls, and the names it
# only uses as types.
CALLS = (
    ("lattice", "Basis2"), ("lattice", "oriented_root_form"),
    ("projection", "to_quotient_triangle_oriented"), ("projection", "reconstruct_superbase"),
    ("metrics", "root_metric"), ("metrics", "root_metric_oriented"),
    ("metrics", "superbase_distance_linf"),
)
TYPES = ("Vec2", "RootForm", "LatticeError")


def package_api(wrap=None) -> SimpleNamespace:
    """The package's functions the client calls, each passed through
    ``wrap(span_name, fn)`` when given."""
    import rootforms

    ns = {n: getattr(rootforms, n) for n in TYPES}
    for layer, name in CALLS:
        fn = getattr(importlib.import_module(f"rootforms.{layer}"), name)
        ns[name] = fn if wrap is None else wrap(f"{layer}.{name}", fn)
    return SimpleNamespace(**ns)


def prepare(api, refs):
    """Oriented root forms and canonical superbases of the reference bases."""
    out = []
    for x1, y1, x2, y2 in refs:
        orf, sign = api.oriented_root_form(api.Basis2(api.Vec2(x1, y1), api.Vec2(x2, y2)))
        out.append((tuple(orf), api.reconstruct_superbase(api.RootForm(*sorted(orf)), sign)))
    return out


def answer(api, prepared, basis):
    """All outputs for one query, as plain values."""
    x1, y1, x2, y2 = basis
    orf, sign = api.oriented_root_form(api.Basis2(api.Vec2(x1, y1), api.Vec2(x2, y2)))
    rms = [
        (api.root_metric(orf, ref, math.inf), api.root_metric(orf, ref, 2.0),
         api.root_metric_oriented(orf, ref, 2.0))
        for ref, _ in prepared
    ]
    pt = api.to_quotient_triangle_oriented(orf, sign)
    nearest = min(range(len(rms)), key=lambda j: rms[j][0])
    dist = None
    if rms[nearest][0] < THRESHOLD:
        sb = api.reconstruct_superbase(api.RootForm(*sorted(orf)), sign)
        dist = api.superbase_distance_linf(sb, prepared[nearest][1])
    return tuple(orf), sign.value, rms, (pt.x, pt.y, pt.signed_x), nearest, dist


def run(api, prepared, queries, seconds: float, on_item=None, calibrate=None):
    """Whole passes over ``queries`` until ``seconds`` have elapsed (at least one).

    Returns a dict with the first pass's results (an error class name in
    place of a failed query's outputs), (queries, wall, p50, p99, cal) per
    pass with the latency quantiles in seconds, and how many later results
    differed from the first pass. Latencies go into one preallocated array
    that each pass overwrites, so the memory the loop holds does not grow
    with the number of passes.

    ``calibrate``, when given, returns a kernel time in seconds (see
    calibrate.py); it is called before every CAL_EVERY queries, ``cal`` is
    the mean of a pass's kernel times (else None), and the kernel's time is
    not part of the pass's wall.
    """
    first = []
    latencies = array("d", bytes(8 * len(queries)))
    passes = []
    mismatches = 0
    clock = time.perf_counter
    start = clock()
    while True:
        cal_times = []
        t_pass = clock()
        for i, q in enumerate(queries):
            if calibrate is not None and i % CAL_EVERY == 0:
                t_cal = clock()
                cal_times.append(calibrate())
                t_pass += clock() - t_cal
            if on_item is not None:
                on_item(i)
            t0 = clock()
            try:
                res = answer(api, prepared, q)
            except api.LatticeError as exc:
                res = type(exc).__name__
            latencies[i] = clock() - t0
            if not passes:
                first.append(res)
            elif res != first[i]:
                mismatches += 1
        wall = clock() - t_pass
        cal = sum(cal_times) / len(cal_times) if cal_times else None
        passes.append((len(queries), wall, quantile(latencies, 0.50), quantile(latencies, 0.99),
                       cal))
        if clock() - start >= seconds:
            break
    return {"results": first, "passes": passes, "mismatches": mismatches,
            "loop_s": clock() - start}
