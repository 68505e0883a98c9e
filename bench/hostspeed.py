"""Host-speed reference for the benchmark's timings.

On the shared 2-vCPU host the benchmark was built on, identical work runs
at speeds up to 60 % apart in runs a minute apart, and a slow spell often
lasts longer than a whole run, so no statistic over one run's rounds
removes it.  So every timed stage call is preceded by a short burst of
fixed NumPy work of the kinds the pipeline does (small-array arithmetic
and shifts, a 192x192 matrix product, a 32k-element gather from a 1 MB
array, small enough to leave the caches to the program), one more burst
follows the round's last call, and each call's seconds are scaled by

    REFERENCE_S / median(bursts near the call)

to "seconds at reference speed" (rates by the inverse).  The bursts near
a call are the two that bracket it and every other one within one call
length before or after it, so a short call is judged by the host's speed
at that moment and a long one by its speed over a comparable stretch.
The burst is benchmark code, so a change to nswave moves the scaled
figures and a change of host speed mostly does not.  Stages a workload
names in `memory_stages` stream large arrays and are scaled by the
square root of the factor.  Raw figures are kept in run.json.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.006    # one burst on that host, when it ran at full speed


class Burst:
    """Fixed reference work; calling it returns its wall seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((8, 64, 5))
        self._mat = rng.standard_normal((192, 192))
        self._big = rng.standard_normal(1 << 17)
        self._idx = rng.integers(0, 1 << 17, 1 << 15)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(200):
            (np.roll(self._small, 1, axis=1) * self._small + 1.0).sum()
        for _ in range(8):
            self._mat @ self._mat
        for _ in range(8):
            self._big[self._idx].sum()
        return time.perf_counter() - t0


def scale(bursts) -> float:
    """Factor taking seconds measured beside `bursts` to reference speed."""
    return REFERENCE_S / statistics.median(bursts)


def call_scales(calls, refs) -> list[float]:
    """Scale of each `(name, start, end)` call of a round whose bursts
    `(time, seconds)` precede every call and follow the last."""
    times = [t for t, _ in refs]
    out = []
    for i, (_, t0, t1) in enumerate(calls):
        d = t1 - t0
        near = set(range(bisect.bisect_left(times, t0 - d),
                         bisect.bisect_right(times, t1 + d))) | {i, i + 1}
        out.append(scale([refs[j][1] for j in near]))
    return out
