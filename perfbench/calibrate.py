"""Gauges of the host's speed, timed next to the work they scale.

The host this benchmark was built on (2 CPUs, x86_64, Python 3.11) switches
between speeds up to 2x apart, for seconds to minutes at a time, and CPU time
slows with wall time, so a run's raw times depend on how much of it fell on
the slow speed. Each reported time is therefore scaled to a reference speed
by a gauge that the program under test does not run, timed next to it while
that work stands still:

- work inside a process (records, reductions, queries) by ``kernel``, a
  fixed piece of interpreter work (small objects, attribute access, calls,
  float arithmetic, dict stores, as in the package's scalar code):
  ``raw * REF_S / kernel time``; for a child with worker threads, the
  kernel runs in as many threads at once (``threaded_kernel_time``);
- set-up, which is process start and imports, by the start of a bare
  interpreter: ``raw * START_REF_S / start time``. On that host the kernel's
  time did not follow start-up times (correlation -0.15 over 40 pairs of an
  empty CLI run and the gauges right after it) and a bare start did (0.87).

REF_S and START_REF_S are typical times of the gauges on that host, rounded,
so scaled times read close to raw times taken there.
"""

from __future__ import annotations

import math
import os
import select
import subprocess
import sys
import threading
import time

REF_S = 0.003
START_REF_S = 0.07
ROUNDS = 2500
THREAD_ROUNDS = 2
START_TIMEOUT_S = 60.0


class _P:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _dot(a, b):
    return a.x * b.x + a.y * b.y


def kernel() -> float:
    acc = 0.0
    seen = {}
    for i in range(ROUNDS):
        a = _P(i * 0.5, 1.5)
        b = _P(-0.25, i * 0.125)
        t = (_dot(a, b), math.sqrt(_dot(a, a)), abs(a.x - b.y))
        m = min(t)
        acc += m if m > 0 else -m
        seen[i & 63] = t
    return acc


def kernel_time() -> float:
    """Seconds one call of the kernel takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _kernel_rounds() -> None:
    for _ in range(THREAD_ROUNDS):
        kernel()


def threaded_kernel_time(threads: int) -> float:
    """Seconds per kernel call when ``threads`` threads each call it
    THREAD_ROUNDS times, all at once.

    With two or more threads, the calls contend for the interpreter lock, and
    each thread's calls together run longer than the switch interval (5 ms),
    so the lock passes between the threads while they run. The time then also follows how fast
    the host hands the lock from one CPU to the other, as the time of a CLI
    child with as many worker threads does; the single-threaded kernel does
    not see that.
    """
    workers = [threading.Thread(target=_kernel_rounds) for _ in range(threads)]
    t0 = time.perf_counter()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    return (time.perf_counter() - t0) / (threads * THREAD_ROUNDS)


def trimmed_mean(values, cut: float) -> float:
    """Mean of ``values`` without the lowest and the highest ``cut`` share of them."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return math.fsum(ordered[k:len(ordered) - k]) / (len(ordered) - 2 * k)


def scaled(seconds: float, cal: float) -> float:
    """``seconds`` of work measured where the kernel took ``cal``, at the reference speed."""
    return seconds * REF_S / cal


def speed(kernel_times) -> float:
    """Factor that scales wall time measured while the kernel took
    ``kernel_times`` (timed at even intervals) to the reference speed: the
    mean of REF_S / time without the lowest and highest tenth."""
    return trimmed_mean([REF_S / t for t in kernel_times], 0.1)


def start_time(env) -> float:
    """Wall seconds to start and end ``python -c pass`` with ``env``.

    The exit is seen through a pidfd: ``subprocess.run`` with a timeout
    polls for it with sleeps of up to 50 ms, which would quantise the time.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "pass"], env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], START_TIMEOUT_S)[0]:
            proc.kill()
    finally:
        os.close(pidfd)
        proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"python -c pass exited with {proc.returncode}")
    return wall


def scaled_start(seconds: float, start: float) -> float:
    """Set-up ``seconds`` measured where a bare start took ``start``, at the reference speed."""
    return seconds * START_REF_S / start
