"""A reference kernel that tracks how fast the machine runs during a run.

On a machine shared with other tenants the same code runs at speeds up to
2x apart, in phases lasting from a second to minutes; a whole run can fall
in a slow phase.  The benchmark therefore times a fixed kernel of its own
every ``CADENCE_S`` seconds, interleaved with the workload, and reports each
timed interval scaled by ``REFERENCE_S / kernel time nearby``: the time the
interval would have taken at the kernel's reference speed.

The kernel mixes what esgnn spends its time on (CSR times dense and
matmuls on batch-sized operands, some larger than the cache, small matmuls
and elementwise numpy on graph-sized ones, Python-level object churn) and never calls esgnn, so a change to
esgnn cannot move it.  Garbage collection is off while
it runs, so collections of esgnn's garbage are not charged to the kernel.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np
import scipy.sparse

# Kernel time in a fast phase on the 2-vCPU 2.1 GHz Xeon this was built on.
# Only a scale: normalized figures equal raw ones when the kernel runs at it.
REFERENCE_S = 0.005
CADENCE_S = 0.25
NEIGHBOURS = 4  # kernel timings whose median stands for the speed at a point


class Clock:
    def __init__(self):
        rng = np.random.default_rng(20230414)
        # batch-sized operands (a 32-graph BA-2Motifs batch has 800 nodes)
        self._a = scipy.sparse.random(800, 800, density=0.005, format="csr", random_state=rng)
        self._x = rng.random((800, 32))
        self._w = rng.random((32, 32)) / 32
        # operands of a 32-graph batch of 200-node graphs, which do not fit in
        # cache, so the kernel also feels memory-bandwidth contention
        self._big_a = scipy.sparse.random(6400, 6400, density=0.0004, format="csr", random_state=rng)
        self._big_x = rng.random((6400, 32))
        # single-graph-sized operands
        self._small = [rng.random((30, 32)) for _ in range(4)]
        self._mids: list[float] = []
        self._kernel_s: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(15):
            h = self._a @ self._x
            acc += float(np.maximum(h @ self._w + self._x, 0.0)[0, 0])
        h = self._big_a @ self._big_x
        acc += float(np.maximum(h @ self._w + self._big_x, 0.0)[0, 0])
        for _ in range(40):
            for a in self._small:
                acc += float(np.maximum(a @ self._w + a, 0.0).sum())
        for i in range(1500):
            t = (i, i + 1, str(i))
            acc += len({"t": t, "l": [i]}) + t[0] % 7
        return acc

    def calibrate(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._mids.append((t0 + t1) / 2)
        self._kernel_s.append(t1 - t0)
        self._last = t1

    def maybe_calibrate(self) -> None:
        if time.perf_counter() - self._last >= CADENCE_S:
            self.calibrate()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time nearest to [t0, t1]."""
        mid = (t0 + t1) / 2
        i = bisect.bisect(self._mids, mid)
        near = self._kernel_s[max(0, i - NEIGHBOURS // 2) : i + NEIGHBOURS // 2]
        return REFERENCE_S / statistics.median(near or self._kernel_s)

    def seconds(self, t0: float, t1: float) -> float:
        """The interval's length at the reference speed."""
        return (t1 - t0) * self.scale(t0, t1)

    @property
    def kernel_s(self) -> list[float]:
        return list(self._kernel_s)
