"""Correction of measured times for the speed of a shared machine.

On a few vCPUs of a shared host, the same Python code runs up to about
1.8x slower for stretches of seconds to tens of seconds while other tenants
load the host.  A median over a run cannot remove a stretch that long, so
the worker times a fixed reference kernel next to the measured code, on
the same CPU, and scales each measured interval by how fast the kernel ran
around it.  The kernel does the same kind of work as steenrod: tuples,
dicts and frozensets built, hashed and combined in pure Python, so the two
slow down together.

They do not slow down equally: the kernel lives in the per-core caches and
feels the host's load more than steenrod's larger working sets.  Over two
sets of ten runs per workload on a 2-vCPU Xeon VM, steenrod's time moved
as the kernel's time to a power of about 0.6 (action) to 1.0 (modules);
``ELASTICITY`` is the one power used for all workloads.  A raw time t measured where the kernel
takes k ns is reported as t * (NOMINAL_NS / k) ** ELASTICITY: the time the
code would take where one kernel run takes 2 ms.  The kernel lives in the
benchmark, so a change to steenrod moves corrected times exactly as it
moves the program's share of the work.
"""

from __future__ import annotations

import os
import statistics
import time

NOMINAL_NS = 2_000_000
ELASTICITY = 0.8
#: Measured intervals are closed and a kernel sample taken after at least
#: this much measured time (or after the operation that overran it).
SEGMENT_NS = 100_000_000
RUNS_PER_SAMPLE = 3
#: Kernel samples on each side of an interval whose median scales it.
WINDOW = 2


def kernel() -> int:
    # A small table probed in place, then a larger one built fresh: the
    # program both reuses hot dicts and fills new ones.
    acc: frozenset = frozenset()
    small = {}
    for i in range(300):
        small[(i % 17, i % 5, i)] = frozenset({i, i + 1, i % 7})
    for key, value in small.items():
        acc ^= value
        if key in small and len(value) > 2:
            acc |= {key[0]}
    fresh = {}
    for i in range(2000):
        fresh[(i, i % 7)] = frozenset((i, i + 1))
    for value in fresh.values():
        acc ^= value
    return len(acc)


def sample() -> int:
    """Nanoseconds of one kernel run: the fastest of a few, so that an
    interrupt that lands on one run does not count."""
    best = None
    for _ in range(RUNS_PER_SAMPLE):
        start = time.perf_counter_ns()
        kernel()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    The kernel must run on the CPU whose speed it stands for; with one CPU
    the measured code and its samples always share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})


def factor(samples: list[int]) -> float:
    """Scale for an interval given the kernel samples around it."""
    return (NOMINAL_NS / statistics.median(samples)) ** ELASTICITY


def segment_factors(samples: list[int]) -> list[float]:
    """Scale of segment k, which lies between samples k and k + 1."""
    n = len(samples) - 1
    return [factor(samples[max(0, k - WINDOW + 1) : min(len(samples), k + WINDOW + 1)]) for k in range(n)]


def corrected_seconds(run, probes: int = 5) -> tuple[float, float]:
    """Raw and corrected wall seconds of ``run()``, with kernel samples before and after."""
    before = [sample() for _ in range(probes)]
    start = time.perf_counter_ns()
    run()
    raw = time.perf_counter_ns() - start
    after = [sample() for _ in range(probes)]
    return raw / 1e9, raw * factor(before + after) / 1e9
