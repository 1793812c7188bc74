"""Benchmark of rootforms: seeded workloads, planted-truth checks, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see perfbench/README.md for why each exists):

- grid_mixed:      ``rootforms grid --mode qt --pgm --res 1000`` over all four
                   record kinds, well conditioned;
- rootform_skewed: ``rootforms rootform --oriented --lenient`` over bases
                   hidden by shears up to just below the step cap, plus a
                   slice at extreme scales;
- match_queries:   one client in a closed loop over the scalar API
                   (root forms, RM_q, QT, alignment of near duplicates).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, taken from untraced runs, with times scaled to the
reference speed of calibrate.py (raw figures are in the report); with
``--trace 1`` it holds the per-layer metrics of the program run in process
with tracing, and the limits probe. Lines before it are a readable report.
Spans and full results go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import query_loop  # noqa: E402
import tracing  # noqa: E402

GRID_RECORDS = 6000
GRID_RES = 1000
SKEW_RECORDS = 800
# Reduction takes about |k| steps for a shear k at this commit and stops at
# lattice.MAX_ITER = 1000; the workload keeps below it and below the scales
# whose squares leave the float range, so that every record has a root form.
SKEW_K_RANGE = (1, 900)
SKEW_EXTREME_SHARE = 0.04
SKEW_EXPONENTS = (100, 150)
# The limits probe of the traced runs: records past the step cap and at
# scales whose squares overflow or underflow, which fail at this commit.
LIMIT_RECORDS = 64
LIMIT_K_RANGE = (400, 4000)
LIMIT_EXTREME_SHARE = 0.25
LIMIT_EXPONENTS = (190, 210)
MATCH_REFS = 8
MATCH_QUERIES = 4000
MATCH_DUP_SHARE = 0.04
SETUP_TRIALS = 8
# While a CLI child runs, it is paused this often to time the calibration kernel.
GAUGE_EVERY_S = 0.2
MIN_CLI_RUNS = 3
MIN_PAIRS = 3
SAMPLED_REDUCTIONS = 24
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    pass


def child_env():
    """Environment for a child: the package on PYTHONPATH and the CLI's own
    worker default, capped at the CPUs this process may run on.

    Children keep compiled bytecode in ``src/``, as an installed package has
    it, whatever the caller's environment says about bytecode.
    """
    env = dict(os.environ)
    for name in ("LATTICE_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cpus = len(os.sched_getaffinity(0))
    workers = os.cpu_count() or 1
    if workers > cpus:
        workers = cpus
        env["LATTICE_THREADS"] = str(cpus)
    return env, workers


def run_child(args, env, workdir, gauge_threads=0):
    """Run ``python ARGS`` to completion: (wall seconds, peak RSS in MiB,
    stderr, gauge times in seconds).

    The child runs under peak_rss.py, which writes the peak RSS of the
    child's own address space when it exits. With ``gauge_threads`` > 0, the
    child is stopped every GAUGE_EVERY_S, the calibration kernel is timed in
    that many threads at once while it stands still (see
    calibrate.threaded_kernel_time), and the child goes on; the pauses are
    not part of the wall. The child's exit is seen through a pidfd, so
    waiting adds no polling delay to the wall.
    """
    peak = workdir / "peak.kib"
    err_path = workdir / "stderr.txt"
    argv = [sys.executable, str(HERE / "peak_rss.py"), str(peak), *args]
    paused = 0.0
    gauge = []
    with open(err_path, "wb") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err_fh)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], GAUGE_EVERY_S)[0]:
                    if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                        raise ChildFailed(f"{args[:3]} ran past {CHILD_TIMEOUT_S} s")
                    if gauge_threads:
                        t_stop = time.perf_counter()
                        os.kill(proc.pid, signal.SIGSTOP)
                        # returns once every thread of the child stands still (or it exited)
                        os.waitid(os.P_PIDFD, pidfd, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                        gauge.append(calibrate.threaded_kernel_time(gauge_threads))
                        os.kill(proc.pid, signal.SIGCONT)
                        paused += time.perf_counter() - t_stop
            finally:
                os.close(pidfd)
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0 - paused
    err = err_path.read_bytes().decode("utf-8", "replace")
    err_path.unlink()
    if proc.returncode != 0:
        raise ChildFailed(f"{args[:3]} exited with {proc.returncode}: {err[-500:]!r}")
    rss = int(peak.read_text(encoding="ascii")) / 1024.0
    peak.unlink()
    return wall, rss, err, gauge


def skipped_ids(stderr: str) -> set[str]:
    """Record ids the CLI reported as skipped in lenient mode."""
    out = set()
    for line in stderr.splitlines():
        if line.startswith("warning: skipped record '"):
            out.add(line[len("warning: skipped record '"):].split("'", 1)[0])
    return out


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def median_quantiles(values):
    return statistics.median(values), tracing.quantile(values, 0.99)


def classify_skipped(items, ids) -> Counter:
    """Error class of each skipped record, found again in process (untimed)."""
    from rootforms import oriented_root_form, project_to_2d
    from rootforms.records import parse_record_line

    by_class: Counter = Counter()
    for n, it in enumerate(items, start=1):
        if it.id not in ids:
            continue
        try:
            oriented_root_form(project_to_2d(parse_record_line(it.line, n)))
            by_class["not_raised_in_process"] += 1
        except ValueError as exc:
            by_class[tracing.failure_class(type(exc).__name__)] += 1
    return by_class


def voronoi_failures(bases) -> int:
    """How many of these bases reduce to a superbase failing the Voronoi oracle."""
    from rootforms import reduce_to_obtuse, superbase_from_basis, verify_partial_sums

    return sum(not verify_partial_sums(reduce_to_obtuse(superbase_from_basis(b))) for b in bases)


def record_sample(items, skip, seed: int):
    """Bases of a sample of the records the CLI did not skip."""
    from rootforms import project_to_2d
    from rootforms.records import parse_record_line

    pool = [(n, it) for n, it in enumerate(items, start=1) if it.id not in skip]
    sample = random.Random(seed).sample(pool, min(SAMPLED_REDUCTIONS, len(pool)))
    return [project_to_2d(parse_record_line(it.line, n)) for n, it in sample]


class CliWorkload:
    """A CLI command over a generated record file."""

    def __init__(self, items, workdir):
        self.items = items
        self.dir = workdir
        self.input = workdir / "records.txt"
        self.empty = workdir / "empty.txt"
        self.input.write_text("".join(it.line + "\n" for it in items), encoding="utf-8")
        self.empty.write_text("", encoding="utf-8")

    def cli_args(self, path):
        raise NotImplementedError

    def child_args(self, path):
        return ["-m", "rootforms", *self.cli_args(path)]

    def outputs(self):
        raise NotImplementedError

    def check(self, skip):
        raise NotImplementedError

    def in_process(self, tracer):
        """One run of the CLI's ``main`` on the corpus in this process, traced
        when ``tracer`` is given: (wall seconds, stderr). The output files are
        the child's. It uses one worker, so that spans nest in one thread."""
        from rootforms import cli

        err = io.StringIO()
        with mock.patch.dict(os.environ, {"LATTICE_THREADS": "1"}), \
                contextlib.redirect_stderr(err), \
                tracer.cli() if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            code = cli.main(self.cli_args(self.input))
            wall = time.perf_counter() - t0
        if code != 0:
            raise ChildFailed(f"in-process CLI exited with {code}: {err.getvalue()[-500:]!r}")
        return wall, err.getvalue()


class GridWorkload(CliWorkload):
    def cli_args(self, path):
        return ["grid", "-i", str(path), "-o", str(self.dir / "grid.csv"),
                "--pgm", str(self.dir / "grid.pgm"), "--mode", "qt", "--res", str(GRID_RES),
                "--lenient"]

    def outputs(self):
        return (self.dir / "grid.csv").read_bytes(), (self.dir / "grid.pgm").read_bytes()

    def check(self, skip):
        return checks.check_grid(*self.outputs(), self.items, skip, GRID_RES)


class RootformWorkload(CliWorkload):
    def cli_args(self, path):
        return ["rootform", "-i", str(path), "-o", str(self.dir / "forms.csv"), "--oriented",
                "--lenient"]

    def outputs(self):
        return ((self.dir / "forms.csv").read_bytes(),)

    def check(self, skip):
        return checks.check_rootform_csv(self.outputs()[0].decode("ascii"), self.items, skip)


def cli_runs(w: CliWorkload, env, workers: int, seconds: float, setup=None):
    """Untraced CLI runs over the corpus until ``seconds`` pass (at least MIN_CLI_RUNS).

    The first run's outputs are checked against the truth; every later run
    must write the same bytes. With a ``setup`` list, each corpus run is
    preceded by a run on the empty file, followed by a bare interpreter
    start, and the empty run's (raw wall, start wall) is appended to it, so
    both sample the same stretch of machine time. Each run carries the
    gauge times taken while its child ran, in as many threads as the CLI
    has workers (see run_child).
    """
    runs = []
    first = None
    start = time.perf_counter()
    while len(runs) < MIN_CLI_RUNS or time.perf_counter() - start < seconds:
        if setup is not None:
            wall = run_child(w.child_args(w.empty), env, w.dir)[0]
            setup.append((wall, calibrate.start_time(env)))
        wall, rss, err, gauge = run_child(w.child_args(w.input), env, w.dir, workers)
        if not gauge:  # a child too short to be paused
            gauge.append(calibrate.threaded_kernel_time(workers))
        out_digest = digest(*w.outputs())
        if first is None:
            skip = skipped_ids(err)
            first = {"digest": out_digest, "skipped": skip, "check": w.check(skip)}
        runs.append({"wall": wall, "rss": rss, "kernel_s": gauge,
                     "same_bytes": out_digest == first["digest"]})
    return runs, first


def failed_by_class(by_class) -> dict:
    return {f"lattice.failed.{c}": (by_class.get(c, 0), "count")
            for c in (*tracing.FAILURE_CLASSES, "other")}


def cli_end_to_end(w: CliWorkload, args, meta) -> dict:
    env, workers = child_env()
    meta["cli_workers"] = workers
    setup = []
    runs, first = cli_runs(w, env, workers, args.seconds, setup)
    n = len(w.items)
    # A run is the set-up of an empty run plus the work on the records. The
    # set-up is scaled by the bare starts next to it and the rest by the
    # kernel times taken while that run's child ran (see calibrate.py).
    setup_s = statistics.median(calibrate.scaled_start(*t) for t in setup)
    setup_raw = statistics.median(wall for wall, _ in setup)
    walls = [setup_s + (r["wall"] - setup_raw) * calibrate.speed(r["kernel_s"]) for r in runs]
    p50, p99 = median_quantiles([wall / n * 1e6 for wall in walls])
    skip = first["skipped"]
    wrong = first["check"]["wrong"]
    differing_runs = sum(not r["same_bytes"] for r in runs)
    failed_per_run = len(skip) + wrong
    failed = failed_per_run * (len(runs) - differing_runs) + n * differing_runs
    attempted = n * len(runs)
    oracle_bad = voronoi_failures(record_sample(w.items, skip, args.seed))
    by_class = classify_skipped(w.items, skip)
    meta.update(
        runs=len(runs), raw_run_walls_s=[r["wall"] for r in runs],
        kernel_s=[r["kernel_s"] for r in runs],
        setup_trials_s=setup,
        output_sha256=first["digest"], check=first["check"], skipped=len(skip),
        failed_by_class=dict(by_class), voronoi_sampled=min(SAMPLED_REDUCTIONS, n - len(skip)),
        voronoi_failed=oracle_bad, runs_with_other_bytes=differing_runs,
    )
    metrics = {
        "items_per_s": (attempted / math.fsum(walls), "items/s"),
        "item_us_p50": (p50, "us"),
        "item_us_p99": (p99, "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r["rss"] for r in runs), "MiB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "failed_ratio": (failed / attempted, "ratio"),
        "raw.items_per_s": (attempted / math.fsum(r["wall"] for r in runs), "items/s"),
        "raw.setup_s": (setup_raw, "s"),
        "host.cal_ms": (statistics.median(k for r in runs for k in r["kernel_s"]) * 1e3, "ms"),
        "host.start_ms": (statistics.median(start for _, start in setup) * 1e3, "ms"),
        "cli.workers": (workers, "count"),
        **failed_by_class(by_class),
    }
    correct = wrong == 0 and differing_runs == 0 and oracle_bad == 0 \
        and not by_class.get("not_raised_in_process")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def paired_runs(run, seconds: float):
    """Alternate untraced and traced calls of ``run(tracer)``, which returns
    its wall, for ``seconds`` (at least MIN_PAIRS pairs).

    Returns the median untraced wall, the median over pairs of traced minus
    untraced wall, and the tracer of the fastest traced call.
    """
    untraced, overheads, best = [], [], None
    start = time.perf_counter()
    while len(overheads) < MIN_PAIRS or time.perf_counter() - start < seconds:
        plain_wall = run(None)
        tracer = tracing.Tracer()
        wall = run(tracer)
        untraced.append(plain_wall)
        overheads.append(wall - plain_wall)
        if best is None or wall < best[0]:
            best = (wall, tracer)
    return statistics.median(untraced), statistics.median(overheads), best[1]


def layer_metrics(stats, tracer, attempted, cli_other_s, workers, overhead) -> dict:
    failed = tracer.failed()
    steps = tracing.step_stats(tracer.steps)
    out = {
        "records.overflow_count": (tracer.overflow, "count"),
        "records.emit_grid.bytes": (tracer.emit_bytes, "bytes"),
        "lattice.reduction_steps.total": (steps["total"], "count"),
        "lattice.reduction_steps.p50": (steps["p50"], "count"),
        "lattice.reduction_steps.max": (steps["max"], "count"),
        "lattice.ok_ratio": (1.0 - sum(failed.values()) / attempted, "ratio"),
        "cli.workers": (workers, "count"),
        "cli.other_s": (cli_other_s, "s"),
        "trace.overhead_s": (overhead, "s"),
        **failed_by_class(failed),
    }
    for s in ("positive", "negative", "neutral"):
        out[f"lattice.sign.{s}"] = (tracer.signs.get(s, 0), "count")
    out.update(stats)
    return out


def cli_traced(w: CliWorkload, args, meta) -> dict:
    env, workers = child_env()
    meta["cli_workers"] = workers
    runs, first = cli_runs(w, env, workers, args.seconds / 3.0)
    cli_wall = statistics.median(r["wall"] for r in runs)
    outcomes = set()

    def run(tracer):
        wall, err = w.in_process(tracer)
        outcomes.add((digest(*w.outputs()), frozenset(skipped_ids(err))))
        return wall

    untraced, overhead, tracer = paired_runs(run, args.seconds / 2.0)
    stats = tracing.span_stats(tracer.spans)
    n = len(w.items)
    metrics = layer_metrics(stats, tracer, n, cli_wall - untraced, workers, overhead)
    same_bytes = {d for d, _ in outcomes} == {first["digest"]}
    same_skips = {k for _, k in outcomes} == {frozenset(first["skipped"])} \
        and sum(tracer.failed().values()) == len(first["skipped"])
    limits, limits_wrong = limits_probe(args.seed, w.dir)
    metrics.update(limits)
    meta.update(cli_wall_s=cli_wall, inproc_untraced_s=untraced, trace_overhead_s=overhead,
                inproc_matches_cli=same_bytes, inproc_skips_match_cli=same_skips,
                output_sha256=first["digest"], check=first["check"], limits_wrong=limits_wrong)
    write_spans(args, tracer)
    failed = len(first["skipped"]) + first["check"]["wrong"]
    correct = first["check"]["wrong"] == 0 and same_bytes and same_skips and limits_wrong == 0
    return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}


def limits_probe(seed: int, workdir: Path):
    """The rootform CLI, in process and untraced, over records past the
    program's limits at this commit (see LIMIT_*).

    Returns the ``limits.*`` metrics, skipped records by class and the share
    with a root form, and how many records the checks find wrong; records
    the program does reduce are checked as the workload's are.
    """
    items = corpus.skewed_corpus(seed, LIMIT_RECORDS, LIMIT_K_RANGE, LIMIT_EXTREME_SHARE,
                                 LIMIT_EXPONENTS)
    probe_dir = workdir / "limits"
    probe_dir.mkdir()
    w = RootformWorkload(items, probe_dir)
    _, err = w.in_process(None)
    skip = skipped_ids(err)
    by_class = classify_skipped(items, skip)
    metrics = {f"limits.failed.{c}": (by_class.get(c, 0), "count")
               for c in (*tracing.FAILURE_CLASSES, "other")}
    metrics["limits.ok_ratio"] = (1.0 - len(skip) / len(items), "ratio")
    return metrics, w.check(skip)["wrong"] + by_class.get("not_raised_in_process", 0)


def write_spans(args, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec) + "\n")


def match_input(path: Path, refs, queries) -> Path:
    spec = {"refs": [[corpus.f17(v) for v in r.basis] for r in refs],
            "queries": [[corpus.f17(v) for v in q.basis] for q in queries]}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def match_child(env, src, dst, seconds):
    args = [str(HERE / "match_child.py"), str(src), str(dst), str(seconds)]
    wall, rss, _, _ = run_child(args, env, dst.parent)
    with open(dst, encoding="utf-8") as fh:
        return wall, rss, json.load(fh)


def match_generate(args):
    return corpus.match_corpus(args.seed, MATCH_REFS, MATCH_QUERIES, MATCH_DUP_SHARE,
                               query_loop.THRESHOLD)


def query_sample(queries, seed: int):
    """Bases of a sample of the queries."""
    from rootforms import Basis2, Vec2

    sample = random.Random(seed).sample(queries, SAMPLED_REDUCTIONS)
    return [Basis2(Vec2(x1, y1), Vec2(x2, y2)) for x1, y1, x2, y2 in (q.basis for q in sample)]


def match_end_to_end(args, workdir, meta) -> dict:
    refs, queries = match_generate(args)
    env, _ = child_env()
    meta["cli_workers"] = 1
    setup_in = match_input(workdir / "refs.json", refs, [])

    def setup_trials():
        """(raw wall, bare interpreter start) of SETUP_TRIALS set-up runs."""
        return [(match_child(env, setup_in, workdir / "setup.json", 0)[0],
                 calibrate.start_time(env)) for _ in range(SETUP_TRIALS)]

    # set-up trials on both sides of the loop sample the machine's state at both ends
    setup = setup_trials()
    wall, rss, out = match_child(env, match_input(workdir / "queries.json", refs, queries),
                                 workdir / "loop.json", args.seconds)
    setup += setup_trials()
    check = checks.check_queries(out["results"], refs, queries, query_loop.THRESHOLD)
    by_class = Counter()
    for name, count in check["failed_by"].items():
        by_class[tracing.failure_class(name)] += count
    passes = out["passes"]
    per_pass_failed = check["wrong"] + sum(check["failed_by"].values())
    attempted = sum(p[0] for p in passes)
    failed = per_pass_failed * len(passes) + out["mismatches"]
    oracle_bad = voronoi_failures(query_sample(queries, args.seed))
    meta.update(passes=len(passes), pass_stats=passes, setup_trials_s=setup, child_wall_s=wall,
                loop_s=out["loop_s"], check=check, mismatches=out["mismatches"],
                failed_by_class=check["failed_by"], voronoi_sampled=SAMPLED_REDUCTIONS,
                voronoi_failed=oracle_bad,
                output_sha256=digest(json.dumps(out["results"]).encode()))
    # each pass's times, scaled by the kernel times measured inside that pass
    scaled = [[calibrate.scaled(t, cal) for t in (wall, p50, p99)]
              for _, wall, p50, p99, cal in passes]
    metrics = {
        "items_per_s": (attempted / math.fsum(p[0] for p in scaled), "items/s"),
        # the mean over passes of each pass's quantile: a pass's quantiles
        # still move with the host's speed, and their mean moves in
        # proportion to it, as items_per_s does, where their median jumps
        "item_us_p50": (statistics.fmean(p[1] for p in scaled) * 1e6, "us"),
        "item_us_p99": (statistics.fmean(p[2] for p in scaled) * 1e6, "us"),
        "setup_s": (statistics.median(calibrate.scaled_start(*t) for t in setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "failed_ratio": (failed / attempted, "ratio"),
        "raw.items_per_s": (attempted / math.fsum(p[1] for p in passes), "items/s"),
        "raw.setup_s": (statistics.median(wall for wall, _ in setup), "s"),
        "host.cal_ms": (statistics.median(p[4] for p in passes) * 1e3, "ms"),
        "host.start_ms": (statistics.median(start for _, start in setup) * 1e3, "ms"),
        **failed_by_class(by_class),
    }
    correct = check["wrong"] == 0 and out["mismatches"] == 0 and oracle_bad == 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def match_traced(args, workdir, meta) -> dict:
    refs, queries = match_generate(args)
    env, _ = child_env()
    meta["cli_workers"] = 1
    wall, _, out = match_child(env, match_input(workdir / "queries.json", refs, queries),
                               workdir / "loop.json", args.seconds / 3.0)
    prepared = query_loop.prepare(query_loop.package_api(), [r.basis for r in refs])
    bases = [q.basis for q in queries]
    outcomes = set()

    def one_pass(tracer):
        if tracer is None:
            api, on_item, steps = query_loop.package_api(), None, contextlib.nullcontext()
        else:
            api = query_loop.package_api(tracer.wrap)
            on_item, steps = (lambda i: setattr(tracer, "item", i)), tracer.reduction_steps()
        with steps:
            t0 = time.perf_counter()
            res = query_loop.run(api, prepared, bases, 0.0, on_item=on_item)
            wall = time.perf_counter() - t0
        outcomes.add(json.dumps(res["results"]))
        return wall

    untraced, overhead, tracer = paired_runs(one_pass, args.seconds / 2.0)
    stats = tracing.span_stats(tracer.spans)
    metrics = layer_metrics(stats, tracer, len(queries), wall - out["loop_s"], 1, overhead)
    check = checks.check_queries(out["results"], refs, queries, query_loop.THRESHOLD)
    same_results = outcomes == {json.dumps(out["results"])}
    n_failed = sum(check["failed_by"].values())
    same_failures = sum(tracer.failed().values()) == n_failed
    limits, limits_wrong = limits_probe(args.seed, workdir)
    metrics.update(limits)
    meta.update(child_wall_s=wall, loop_s=out["loop_s"], inproc_untraced_s=untraced,
                trace_overhead_s=overhead, inproc_matches_child=same_results,
                inproc_failures_match_child=same_failures, check=check,
                limits_wrong=limits_wrong)
    write_spans(args, tracer)
    correct = check["wrong"] == 0 and same_results and same_failures and limits_wrong == 0
    return {"correct": correct, "attempted": len(queries), "failed": check["wrong"] + n_failed,
            "metrics": metrics}


def generate_cli(args, workdir):
    if args.workload == "grid_mixed":
        return GridWorkload(corpus.grid_corpus(args.seed, GRID_RECORDS), workdir)
    items = corpus.skewed_corpus(args.seed, SKEW_RECORDS, SKEW_K_RANGE, SKEW_EXTREME_SHARE,
                                 SKEW_EXPONENTS)
    return RootformWorkload(items, workdir)


def run_workload(args, workdir, meta) -> dict:
    if args.workload == "match_queries":
        if args.trace:
            return match_traced(args, workdir, meta)
        return match_end_to_end(args, workdir, meta)
    w = generate_cli(args, workdir)
    if args.trace:
        return cli_traced(w, args, meta)
    return cli_end_to_end(w, args, meta)


def versions() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def final_metrics(metrics, declared) -> dict:
    """The declared metrics for the JSON line; a unit that differs from the
    declared one is an error of the benchmark."""
    out = {}
    for name, unit in declared.items():
        value, measured_unit = metrics[name]
        if measured_unit != unit:
            raise ValueError(f"{name} is measured in {measured_unit}, declared in {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid_mixed", "rootform_skewed", "match_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rootforms" / "__init__.py").is_file():
        print(f"error: no rootforms package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # a terminated run still removes its work files and stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **versions()}
    started = time.perf_counter()
    try:
        result = run_workload(args, workdir, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["total_s"] = time.perf_counter() - started

    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": final_metrics(result["metrics"], declared_metrics(args.trace)),
    }
    print(" ".join(f"{k}={meta[k]}" for k in
                   ("workload", "seed", "trace", "python", "numpy", "cpus", "cpus_allowed",
                    "cli_workers")))
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} {value} {unit}")
    for key in ("correct", "attempted", "failed"):
        print(f"{args.workload} {key} {result[key]}")
    OUT.mkdir(exist_ok=True)
    summary = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    summary.write_text(json.dumps({**meta, **result}, indent=1, default=str), encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
