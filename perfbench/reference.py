"""A fixed reference kernel that gauges the machine's speed at a moment.

On a shared host the speed of identical work drifts by up to 2x within
seconds, so raw wall times of one run say as much about the neighbours as
about the program.  The harness runs this kernel between jobs and scales
each job's wall time by ``NOMINAL_S / (the kernel's time around the job)``:
the result is the job's time at a fixed nominal speed.  The kernel mixes the
kinds of work the library does (a hand-written LU and numpy calls on small
arrays, a row recursion over numpy scalars, and text parsing) so that it
slows down with the library, but it calls no library code, so a faster
library still shows in full.
"""

from __future__ import annotations

import re
from time import perf_counter

import numpy as np

# The kernel's wall time at the nominal speed: its median on a 2-core x86-64
# container with one BLAS thread.  Scaled times are seconds at this speed.
NOMINAL_S = 0.006

_RNG = np.random.default_rng(12345)
_MATRICES = [(_RNG.random((n, n)) - 0.5) + n * np.eye(n) for n in (5, 7, 9, 11)]
_WIDE = np.where(_RNG.random((48, 48)) < 0.5, 0.0, _RNG.random((48, 48))) + np.eye(48)
_TEXT = "\n".join(" ".join(f"{x:.17g}" for x in row) for row in _RNG.random((40, 40)) - 0.5)
_TOKEN = re.compile(r"[^\s,]+")


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    u, x = a.copy(), b.copy()
    for k in range(n):
        p = k + int(np.argmax(np.abs(u[k:, k])))
        if p != k:
            u[[k, p], k:] = u[[p, k], k:]
            x[[k, p]] = x[[p, k]]
        mult = u[k + 1:, k] / u[k, k]
        u[k + 1:, k:] -= np.outer(mult, u[k, k:])
        x[k + 1:] -= mult * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - u[k, k + 1:] @ x[k + 1:]) / u[k, k]
    return x


def _forward(a: np.ndarray) -> np.ndarray:
    """A row recursion over numpy scalars, skipping zero weights."""
    divisors = np.abs(np.diag(a))
    values = np.ones(a.shape[0])
    for i in range(1, a.shape[0]):
        acc = values[i]
        for j in range(i):
            weight = a[i, j]
            if weight == 0.0:
                continue
            acc += weight * values[j] / divisors[j]
        values[i] = acc
    return values


def _work() -> float:
    acc = 0.0
    for _ in range(2):
        for m in _MATRICES:
            acc += float(_lu_solve(m, m[:, 0].copy())[0])
            acc += float(np.abs(np.linalg.inv(m)).sum(axis=1).max())
    acc += float(_forward(_WIDE)[-1])
    rows = [[float(t.group(0)) for t in _TOKEN.finditer(line)] for line in _TEXT.splitlines()]
    return acc + float(np.array(rows).sum())


def seconds() -> float:
    """Wall time of one run of the kernel."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` at the nominal speed, given the kernel's times just before
    and just after it."""
    return wall * NOMINAL_S / ((before + after) / 2)
