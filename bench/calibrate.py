"""A fixed computation that gauges the machine's speed while a run lasts.

The benchmark's machine is shared, and its speed drifts by tens of percent
over seconds to minutes; a call's wall time follows the drift (README,
"Timing on a shared machine").  The worker runs `kernel` right after every
program call, and a call's time is reported in reference seconds:

    call wall time / kernel wall time * KERNEL_REFERENCE_S

that is, the time the call would take on a machine where the kernel takes
KERNEL_REFERENCE_S.  The kernel mixes what the program does: interpreted
loops over small objects, numpy on short vectors, and, like the dense
likelihood, strided block copies and batched products and Cholesky factors
on 256 x 50 x 50 arrays.  Run right after a call, it tracks the speed the
call ran at better than one run before it or the mean of both.  It is part of the
benchmark and imports nothing from `stlbayes`, so a change to the program
moves the reported times and leaves the kernel as it is.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine of the README's reference figures.
KERNEL_REFERENCE_S = 0.028

_GEN = np.random.default_rng(20240)
_VEC = _GEN.standard_normal(300)
_MAT = _GEN.standard_normal((256, 50, 50))
_SPD = _MAT @ np.swapaxes(_MAT, 1, 2) + 50.0 * np.eye(50)
_RHS = _GEN.standard_normal((256, 50, 1))
_BLK = _GEN.standard_normal((256, 49))


def kernel() -> float:
    """Run the fixed computation once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(16000):
        acc += i * i % 7
        table[i % 97] = table.get(i % 97, 0) + 1
    for _ in range(200):
        w = np.exp(-np.abs(_VEC)) * np.sin(_VEC)
        acc += int(w.argmax())
    # Strided block copies into a 5 MB batch, then batched products and
    # Cholesky factors on it: arrays larger than a core's private caches.
    band = np.zeros((256, 50, 50))
    for r in range(1, 50):
        for col in range(0, r, 2):
            band[:, r, col] = _BLK[:, r - col - 1]
    prod = band @ _SPD @ np.swapaxes(band, 1, 2)
    low = np.linalg.cholesky(_SPD)
    acc += int(np.linalg.solve(low, _RHS).sum() > prod.sum())
    if acc < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - start


def reference_seconds(wall: float, kernel_s: float) -> float:
    """A wall time in seconds of the reference machine."""
    return wall / kernel_s * KERNEL_REFERENCE_S
