"""A fixed computation, timed between operations to track machine speed.

On a shared VM the same work can run a third slower or faster within
minutes. The reference runs no logconmix code, so a program change cannot
move it, and a workload's operation time divided by the reference time
cancels most of that drift. It mixes the three kinds of work the workloads
do: an interpreter loop, numpy calls on small arrays and passes over an
8 MB array. It runs on the benchmark's own thread, so that it meets the
same core and caches as the workload; its two 8 MB arrays are allocated
once and add a constant 16 MB to the peak RSS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class Reference:
    def __init__(self):
        self._small = np.linspace(0.0, 1.0, 500)
        self._large = np.linspace(-4.0, 4.0, 1_000_000)
        self._buf = np.empty_like(self._large)

    def _work(self):
        acc = 0
        for i in range(60_000):
            acc += i % 7
        for _ in range(300):
            float(np.sum(np.exp(-self._small) * self._small))
        np.multiply(self._large, self._large, out=self._buf)
        self._buf *= -0.5
        np.exp(self._buf, out=self._buf)
        return float(self._buf.mean()) + acc

    def sample(self, count: int = 1):
        """Wall times of ``count`` back-to-back reference runs."""
        walls = []
        for _ in range(count):
            t0 = perf_counter()
            self._work()
            walls.append(perf_counter() - t0)
        return walls
