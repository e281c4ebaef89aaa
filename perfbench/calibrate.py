"""Machine-speed calibration: reference-speed CPU time.

On a shared host the CPU time of a fixed piece of work is not fixed: the
same pass runs up to about 1.5 times slower for seconds at a time while
other tenants load the core or its hyper-thread sibling.  The benchmark
therefore runs a short calibration pass, independent of the library,
before and after every timed problem, and scales the problem's CPU time by
REF_S over the calibration's CPU time.  The result reads as the CPU time
on a machine where one calibration pass takes REF_S, and moves only when
the library's cost moves relative to the pass.

The pass mixes the two kinds of work the library does: interpreted Python
and numpy calls on small arrays.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 3.0e-3  # CPU seconds of one calibration pass at reference speed

_M = np.random.default_rng(0).standard_normal((4, 4))


def _one_pass() -> float:
    s = 0
    for i in range(20000):
        s += i * i % 7
    x = _M
    for _ in range(300):
        x = np.abs(x @ _M) / (1.0 + np.linalg.norm(x))
    return s + float(x[0, 0])


def pass_cpu_s(repeats: int = 2) -> float:
    """CPU seconds of one calibration pass, the least of `repeats` runs."""
    best = float("inf")
    for _ in range(repeats):
        c0 = time.process_time()
        _one_pass()
        best = min(best, time.process_time() - c0)
    return best
