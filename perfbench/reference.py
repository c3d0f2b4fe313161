"""A fixed reference kernel that gauges the host's speed during a run.

The benchmark was written on a shared 2-vCPU host whose speed drifts by a
quarter or more from one minute to the next: the same work, on the same
inputs, runs that much slower or faster. The harness runs this kernel
between its timed calls, for a fixed share of the time, and expresses every
time in *reference seconds*: wall seconds scaled by
``nominal_s / (the kernel's mean time over the same stretch)``. Host drift
slows the kernel and the program alike and cancels; a change to scesep does
not touch the kernel and shows in full.

Contention from other tenants slows small cache-resident operations and
large memory-bound ones by different amounts, so there are two kernels, and
``plan.json`` names the one each workload's op times track best:

- ``recurrent``: an LSTM-style loop of small numpy operations over 78 frames
  at batch 4, the shape of the BLSTM tape: Python dispatch and small arrays.
- ``kmeans``: Lloyd iterations (distances, argmin, centroid means) on 20,000
  points in 8 dimensions, the shape of K-means on T*F embeddings: large
  memory-bound array passes.

Their inputs are fixed; nothing here imports scesep.

The scale uses the kernel's mean, not its median. Interference from other
tenants comes and goes; a long call's time grows with the share of time it
is present, and so does the mean of many short kernel runs, while their
median jumps between the two states.
"""

import statistics
import time

import numpy as np


class Reference:
    def __init__(self, kind, nominal_s):
        self.kind = kind
        self.nominal_s = nominal_s
        rng = np.random.default_rng(20180427)
        if kind == "recurrent":
            self.x = rng.standard_normal((78, 4, 257))
            self.w = 0.05 * rng.standard_normal((257, 64))
            self.u = 0.1 * rng.standard_normal((16, 64))
            self._run = self._recurrent
        elif kind == "kmeans":
            self.points = rng.standard_normal((20000, 8))
            self._run = self._kmeans
        else:
            raise ValueError(f"unknown reference kernel {kind!r}")
        for _ in range(20):  # warm caches and lazy set-up before any timing
            self.kernel()

    def _recurrent(self):
        h = np.zeros((4, 16))
        c = np.zeros((4, 16))
        for t in range(len(self.x)):
            i, f, o, g = np.split(self.x[t] @ self.w + h @ self.u, 4, axis=1)
            i, f, o = (1.0 / (1.0 + np.exp(-z)) for z in (i, f, o))
            c = f * c + i * np.tanh(g)
            h = o * np.tanh(c)

    def _kmeans(self):
        p = self.points
        centroids = p[:2].copy()
        for _ in range(3):
            d2 = (p * p).sum(1)[:, None] - 2.0 * p @ centroids.T + (centroids**2).sum(1)
            labels = d2.argmin(1)
            centroids = np.stack([p[labels == j].mean(0) for j in range(2)])

    def kernel(self):
        """Run the kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def gauge(self, budget_s, min_runs=1):
        """Run the kernel for about ``budget_s`` seconds, at least
        ``min_runs`` times; return the times."""
        times = [self.kernel() for _ in range(min_runs)]
        while sum(times) < budget_s:
            times.append(self.kernel())
        return times

    def scale(self, times):
        """Factor from wall seconds to reference seconds, given kernel times
        taken across the measured work."""
        return self.nominal_s / statistics.fmean(times)
