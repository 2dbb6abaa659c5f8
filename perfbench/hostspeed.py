"""Host speed reference for the benchmark's timings.

On a host whose cores are shared with other tenants, speed drifts by tens of
percent within seconds and over minutes: the same pass can take twice as long
a minute later. A fixed reference kernel, timed between invocations, tracks
that drift. Each invocation's wall time is scaled by the kernel's reference
time over its mean time just before and just after the invocation, which
gives the time the invocation would have taken on a host where the kernel
takes its reference time. The kernel does no pacbayes work, so a change to the
program moves the scaled time in the same proportion as the wall time.

The kernel mixes the kinds of work the program does most: interpreted
Python arithmetic and small NumPy calls dominated by call overhead. Its data
fit in the first-level cache, so what the program left in the caches does not
change its time, and it adds nothing to the peak resident memory. It comes in
two forms. The serial kernel runs on the calling thread. The pooled kernel
splits the same kind of work into many small tasks on a thread pool with one
worker per CPU, as `verify.coverage_experiment` does with its trials, so it
also pays for handing the interpreter lock between threads on different CPUs.
That hand-off slows and speeds with the load on the other CPUs, which the
serial kernel does not see.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# Kernel wall times on an unloaded 2-vCPU x86-64 host.
REFERENCE_S = {"serial": 1.0e-3, "pooled": 7.0e-3}

_SMALL = np.arange(50.0)
_TASKS = 200


def _work(loops: int, calls: int) -> None:
    acc = 0
    for i in range(loops):
        acc += i * i
    for _ in range(calls):
        float(np.exp(_SMALL).sum())


def _task(_) -> None:
    _work(200, 4)


def kernel_seconds(kind: str) -> float:
    """Wall time of one run of the `kind` reference kernel."""
    start = perf_counter()
    if kind == "serial":
        _work(10_000, 200)
    else:
        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            list(pool.map(_task, range(_TASKS)))
    return perf_counter() - start


def scaled(elapsed: float, kind: str, before: float, after: float) -> float:
    """Wall time `elapsed` at reference speed, given the times of a `kind`
    kernel just before and just after it."""
    return elapsed * REFERENCE_S[kind] / (0.5 * (before + after))
