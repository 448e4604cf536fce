"""Machine-speed calibration: a fixed kernel timed next to every operation.

The speed of the 2-core virtual machine this benchmark was built on drifts
by up to 1.7x, in phases of one to tens of seconds, with the same inputs
and the same work counts: other tenants share its cores and caches.  Such
a phase slows the program and a small kernel of the same kind of work
alike.  So a run times the kernel between operations and scales each
operation's wall time by ``REF_S / kernel time``: the time the operation
would have taken at the kernel's reference speed.  Over 40 s in which an
operation's median moved by +-17%, its ratio to the kernel moved by +-4%.

The kernel is the benchmark's own code, so a change to the program cannot
move it.  It runs with the garbage collector off, so garbage an operation
leaves behind is not collected on the kernel's clock.
"""
from __future__ import annotations

import gc
import time

import numpy as np
from numpy.random import default_rng

# Reference times: the kernels' usual time on a quiet moment of the machine
# above.  They fix the scale of the reported seconds, nothing else.
REF_S = {"python": 0.005, "numpy": 0.0014}


class Kernel:
    """``python``: breadth-first walks over a fixed random graph held in
    dicts of sets, like the planner's and simplifier's pointer chasing.
    ``numpy``: complex products and axis sums over 2^16-entry arrays, like
    the table kernels of ``regroup``."""

    def __init__(self, kind: str):
        self.kind = kind
        rng = default_rng(7)
        if kind == "python":
            n = 600
            self.adj = {i: set() for i in range(n)}
            for u, v in rng.integers(n, size=(1800, 2)).tolist():
                if u != v:
                    self.adj[u].add(v)
                    self.adj[v].add(u)
            self.starts = range(0, n, 30)
        elif kind == "numpy":
            self.x = rng.standard_normal(2 ** 16) + 1j * rng.standard_normal(2 ** 16)
            self.y = self.x[::-1].copy()
        else:
            raise ValueError(f"unknown kernel {kind!r}")

    def _run(self) -> None:
        if self.kind == "python":
            adj = self.adj
            for s in self.starts:
                seen, frontier = {s}, [s]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for v in adj[u]:
                            if v not in seen:
                                seen.add(v)
                                nxt.append(v)
                    frontier = nxt
        else:
            for _ in range(10):
                (self.x * self.y).reshape(256, 256).sum(axis=1)

    def seconds(self) -> float:
        """One timed run of the kernel."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._run()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def scale(self, kernel_s: float) -> float:
        """Factor that takes a time measured when the kernel took
        ``kernel_s`` to the reference speed."""
        return REF_S[self.kind] / kernel_s


def kernel_for(workload: str) -> Kernel:
    return Kernel("numpy" if workload == "tables" else "python")
