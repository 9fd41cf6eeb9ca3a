"""Host speed, measured by fixed kernels timed between the run's intervals.

The benchmark runs on shared machines whose speed drifts by a quarter over
minutes as other tenants come and go. A pass's wall time follows that drift,
and so does its CPU time, so the drift is slower execution rather than
waiting. The kernels below use no mimopower code. Timed after every set-up
start and every pass, a kernel's median over the run gives the host's speed
during the run, and each reported time is scaled to a host on which the
kernel takes its reference time. A change to mimopower cannot move a
kernel, only the times scaled by it.

One kernel time is noisy, as tenants' bursts are shorter than a pass; the
median of a run's kernel times is steady, and the drift is slower than a
run, so one factor serves the whole run.

The drift does not slow all work alike, so each workload is scaled by the
kernel shaped like its own work: SMALL for the interpreter-bound sweeps and
for set-up, BULK for the Monte-Carlo oracle, whose time goes to filling and
contracting arrays of tens of megabytes. On the oracle, SMALL tracks the
oracle's time worse than no scaling at all.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, NamedTuple

import numpy as np


def small_kernel_seconds() -> float:
    """Wall time of a loop of small array operations.

    Small dense solves, mat-vecs and index scans (the shape of a simplex
    pivot on the 24-row power-min LP), then a 2 MB complex64 normal fill and
    a matmul.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 104))
    m = a[:, :24] + 24.0 * np.eye(24)
    draws = np.empty((64, 4096), dtype=np.complex64)
    start = time.perf_counter()
    x = np.ones(24)
    for _ in range(400):
        y = np.linalg.solve(m, x)
        r = a.T @ y
        j = int(np.flatnonzero(r >= r.mean())[0])
        x = np.abs(a[:, j]) + 1.0
    rng.standard_normal(out=draws.view(np.float32), dtype=np.float32)
    draws[:32] @ draws[32:].T
    return time.perf_counter() - start


def bulk_kernel_seconds() -> float:
    """Wall time of one Monte-Carlo oracle batch of 1024 draws at L=4, K=8,
    M=64: a 19 MB complex64 normal fill and the contraction over M."""
    rng = np.random.default_rng(0)
    z_hat = np.empty((4, 8, 64, 1024), dtype=np.complex64)
    h = np.empty((4, 64, 1024), dtype=np.complex64)
    start = time.perf_counter()
    rng.standard_normal(out=z_hat.view(np.float32), dtype=np.float32)
    rng.standard_normal(out=h.view(np.float32), dtype=np.float32)
    np.einsum("lms,ltms->lts", h.conj(), z_hat, optimize=True)
    return time.perf_counter() - start


class Kernel(NamedTuple):
    seconds: Callable[[], float]
    reference_s: float  # about its time on a quiet 2-vCPU x86-64 host


SMALL = Kernel(small_kernel_seconds, 0.025)
BULK = Kernel(bulk_kernel_seconds, 0.125)


class SpeedProbe:
    """The host's speed over a run, from kernel times taken between intervals."""

    REPEATS = 3  # kernel timings per sample

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.kernel_times: list = []
        self.sample()

    def sample(self) -> None:
        self.kernel_times += [self.kernel.seconds() for _ in range(self.REPEATS)]

    def scale(self) -> float:
        """The kernel's reference time over its median time in the run;
        multiply a time measured in the run by it to get the time at the
        reference speed."""
        return self.kernel.reference_s / statistics.median(self.kernel_times)
