"""Spans around the package's public calls while the real program runs in process.

A traced CLI run calls ``rootforms.cli.main`` in this process with one worker,
after the functions the CLI calls have been replaced, in the ``rootforms.cli``
namespace, by wrappers that record a span per call. The reduction inside
``oriented_root_form`` is wrapped in the ``rootforms.lattice`` namespace. The
query client is traced by handing it wrapped functions (see
``query_loop.package_api``). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter

FAILURE_CLASSES = (
    "DegenerateBasis", "DegenerateLattice", "IterationLimitExceeded", "NegativeConorm",
    "ParseError",
)

# Names in the rootforms.cli namespace the traced CLI run wraps, with the
# span name of each. The command functions are layer ``cli``, so the CLI's own
# work (file read, record loop, output join and write) is ``cli.self_s``;
# ``_record_forms`` runs once per record and names the record of its spans.
CLI_CALLS = (
    ("parse_record_line", "records.parse_record_line"),
    ("project_to_2d", "records.project_to_2d"),
    ("accumulate_grid", "records.accumulate_grid"),
    ("emit_grid", "records.emit_grid"),
    ("fmt", "records.format_number"),
    ("oriented_root_form", "lattice.oriented_root_form"),
    ("to_quotient_triangle_oriented", "projection.to_quotient_triangle_oriented"),
    ("_cmd_grid", "cli.cmd_grid"),
    ("_cmd_rootform", "cli.cmd_rootform"),
    ("_read_records", "cli.read_records"),
    ("_record_forms", "cli.record_forms"),
)

# Public functions whose per-call stats the report prints for every workload,
# as 0 where a workload never calls them.
REPORTED = (
    "records.parse_record_line", "records.project_to_2d", "records.accumulate_grid",
    "records.emit_grid", "records.format_number",
    "lattice.Basis2", "lattice.oriented_root_form", "lattice.reduce_to_obtuse",
    "projection.to_quotient_triangle_oriented", "projection.reconstruct_superbase",
    "metrics.root_metric", "metrics.root_metric_oriented", "metrics.superbase_distance_linf",
)
LAYERS = ("records", "lattice", "projection", "metrics", "cli")


def failure_class(name: str) -> str:
    """The class name itself for the package's known failures, else 'other'."""
    return name if name in FAILURE_CLASSES else "other"


class Tracer:
    """In-memory spans (name, start, end, parent index, item id) and call outcomes.

    ``item`` is the id of the record or query being processed, -1 outside
    one. ``errors`` maps an item to the class of the exception that left a
    span of that item; ``steps``, ``signs``, ``overflow`` and ``emit_bytes``
    are read off the results of the calls that produce them.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.item = -1
        self.errors: dict[int, str] = {}
        self.steps: list[int] = []
        self.signs: Counter = Counter()
        self.overflow = 0
        self.emit_bytes = 0

    def wrap(self, name: str, fn, item_of=None):
        """``fn`` recording a span per call; ``item_of(*args)`` names the call's item."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = self._on_result(name)

        def traced(*args, **kwargs):
            outer = self.item
            if item_of is not None:
                self.item = item_of(*args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except ValueError as exc:  # the package's errors, which the callers catch
                if self.item >= 0:
                    self.errors[self.item] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)
                self.item = outer
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_result(self, span: str):
        return {
            "lattice.oriented_root_form": lambda r: self.signs.update((r[1].value,)),
            "lattice.reduce_to_obtuse": lambda obt: self.steps.append(obt.reduction_steps),
            "records.accumulate_grid": lambda g: setattr(self, "overflow", g.overflow_count),
            "records.emit_grid": lambda b: setattr(self, "emit_bytes", self.emit_bytes + len(b)),
        }.get(span)

    @contextlib.contextmanager
    def reduction_steps(self):
        """Wrap the reduction that ``oriented_root_form`` calls."""
        from rootforms import lattice

        original = lattice.reduce_to_obtuse
        lattice.reduce_to_obtuse = self.wrap("lattice.reduce_to_obtuse", original)
        try:
            yield
        finally:
            lattice.reduce_to_obtuse = original

    @contextlib.contextmanager
    def cli(self):
        """Wrap the functions ``rootforms.cli`` calls, and the reduction.

        Names the CLI no longer has are skipped, so the CLI always runs as it
        is; a call that is not wrapped counts toward its caller's self time.
        """
        from rootforms import cli

        item_of = {
            "parse_record_line": lambda text, line: line,
            "_record_forms": lambda rec: rec.line,
        }
        originals = {n: getattr(cli, n) for n, _ in CLI_CALLS if hasattr(cli, n)}
        for n, span in CLI_CALLS:
            if n in originals:
                setattr(cli, n, self.wrap(span, originals[n], item_of.get(n)))
        try:
            with self.reduction_steps():
                yield
        finally:
            for n, fn in originals.items():
                setattr(cli, n, fn)

    def failed(self) -> Counter:
        """Failed items by error class."""
        return Counter(failure_class(c) for c in self.errors.values())

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "item": i}
            for n, s, e, p, i in self.spans
        ]


def quantile(values, q: float) -> float:
    """Inclusive quantile (0 < q < 1) of a non-empty sequence."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (values[hi] - values[lo]) * (pos - lo))


def span_stats(spans) -> dict:
    """Per-function totals and per-layer self times of a finished trace, with units.

    ``<layer>.<fn>.s`` sums span durations (nested spans of other functions
    included), ``.calls`` counts them, ``.us_p50``/``.us_p99`` are per-call
    quantiles. ``<layer>.self_s`` sums each span's duration minus the time
    covered by its child spans. Functions in REPORTED and layers in LAYERS
    that have no span read 0.
    """
    durations: dict[str, list[float]] = {name: [] for name in REPORTED}
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        durations.setdefault(name, []).append(t1 - t0)
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, tuple] = {}
    for name, ds in durations.items():
        out[f"{name}.s"] = (math.fsum(ds), "s")
        out[f"{name}.calls"] = (len(ds), "count")
        out[f"{name}.us_p50"] = (quantile(ds, 0.50) * 1e6 if ds else 0.0, "us")
        out[f"{name}.us_p99"] = (quantile(ds, 0.99) * 1e6 if ds else 0.0, "us")
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (name, t0, t1, _, _), inner in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (t1 - t0) - inner
    for layer, s in self_s.items():
        out[f"{layer}.self_s"] = (s, "s")
    return out


def step_stats(steps) -> dict:
    if not steps:
        return {"total": 0, "p50": 0, "max": 0}
    ordered = sorted(steps)
    return {"total": sum(ordered), "p50": ordered[(len(ordered) - 1) // 2], "max": ordered[-1]}
