"""Host-speed calibration for timings on a shared machine.

The benchmark runs on hosts whose speed swings by a third within seconds as
other tenants load the machine.  Before each timed case the run times a fixed
calibration kernel, independent of fracext, and scales the case's time by
REF_S / kernel time: the scaled figure is the time the case would take on a
host where the kernel takes REF_S.  A change to fracext moves the scaled
times exactly as it moves the raw ones; a change in host speed moves both
the case and the kernel and cancels.

One kernel sample (about 33 ms) is itself noisy, so a case is scaled by the
median of three samples: the one just before it, the one just after it
(taken before the next case) and the one before the previous case.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The kernel: a Python loop of KERNEL_LOOP additions, then a SuperLU
# factorisation of the 5-point Laplacian on a KERNEL_N x KERNEL_N grid and
# KERNEL_SOLVES solves with it.  Its factors (about 4 MB) spill out of the
# per-core caches, as the workloads' factors do, so it feels the same
# contention for the shared cache and memory.  REF_S is its time on a quiet
# 2-core Xeon host, where calibrated seconds match raw seconds; it holds for
# these sizes only.
KERNEL_LOOP = 100_000
KERNEL_N = 80
KERNEL_SOLVES = 5
REF_S = 0.033


class Calibrator:
    """The kernel mixes what the workloads spend their time on: interpreted
    Python arithmetic, a SuperLU factorisation and triangular solves."""

    def __init__(self):
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(KERNEL_N, KERNEL_N))
        eye = sp.identity(KERNEL_N)
        self._A = (sp.kron(T, eye) + sp.kron(eye, T)).tocsc()
        self._b = np.ones(KERNEL_N * KERNEL_N)
        self.samples = []

    def kernel_s(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(KERNEL_LOOP):
            acc += i * i
        lu = spla.splu(self._A)
        x = self._b
        for _ in range(KERNEL_SOLVES):
            x = lu.solve(x) + 1.0
        return time.perf_counter() - t0

    def sample(self):
        """Time the kernel now and keep the time; returns the sample's index."""
        self.samples.append(self.kernel_s())
        return len(self.samples) - 1

    def scale(self, i):
        """Factor that turns a raw time measured between samples i and i + 1
        into calibrated seconds: REF_S over the median of samples i - 1, i
        and i + 1 (those that exist)."""
        return REF_S / statistics.median(self.samples[max(0, i - 1):i + 2])
