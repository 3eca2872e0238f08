"""A fixed piece of work, independent of migopt, that tracks host speed.

On a shared host the same computation runs up to 1.4x slower for minutes
at a time (see NOTES.md). The probe runs before every operation, outside
the operation's time, and its median over a run says how fast the host
was during that run. It mixes the two kinds of work the program does:
dict, set and list traversal of a random DAG, and a numpy gather and
matrix product shaped like one policy layer. Its arrays are allocated
once, so it adds a constant to the run's peak memory.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

# Median probe time on the reference machine in its faster state; timing
# metrics are reported as if every run had seen a host this fast.
REFERENCE_S = 0.0065


class HostProbe:
    def __init__(self, rows: int = 2000, nodes: int = 3000):
        rng = np.random.default_rng(0)
        self.feats = rng.random((rows, 17))
        self.idx = rng.integers(0, rows, size=rows * 6)
        self.w = rng.random((102, 16))
        self.msg = np.empty((rows * 6, 17))
        self.out = np.empty((rows, 16))
        r = random.Random(0)
        self.fanins = {i: [r.randrange(i) for _ in range(3)] if i > 50 else [] for i in range(nodes)}
        self.samples: list[float] = []

    def __call__(self, repeats: int = 3):
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(5):
                np.take(self.feats, self.idx, axis=0, out=self.msg)
                np.matmul(self.msg.reshape(-1, 102), self.w, out=self.out)
            seen: set[int] = set()
            for root in self.fanins:
                stack = [root]
                while stack:
                    n = stack.pop()
                    if n not in seen:
                        seen.add(n)
                        stack.extend(self.fanins[n])
            self.samples.append(perf_counter() - t0)

    def speed(self) -> float:
        """How much faster than this run's host the reference host is."""
        return statistics.median(self.samples) / REFERENCE_S
