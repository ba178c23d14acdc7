"""How fast the host runs while jobs run, sampled with a fixed kernel.

The benchmark shares a few vCPUs of a host with other tenants. When the
sibling of our vCPU is busy, every instruction we run takes longer: the
same job's wall time swings by up to half within a minute, in stretches of
seconds, and the mean speed over a run of tens of seconds differs from run
to run by more than the benchmark's bounds.

``Pace`` measures that speed while the jobs run. A wall-clock timer signal
interrupts a job every ``INTERVAL_S`` seconds, and its handler times one pass
of a fixed reference kernel that uses none of mipdiff's code: a pure Python
loop, and numpy stencil arithmetic on 64x64, 256x256 and 512x512 fields,
the slice sizes of the workloads, into buffers allocated once. A job's
time, with the kernel's own time taken out, is then scaled by
``REFERENCE_S`` over the mean kernel time sampled during that job. That
gives the job's time on a host that runs the kernel in ``REFERENCE_S``: a
change to mipdiff moves it, a busy neighbour moves it far less.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the mean kernel time on the baseline host (2-vCPU Intel Xeon VM,
# numpy 2.4, one BLAS thread), so paced times read close to its wall times.
REFERENCE_S = 0.004
INTERVAL_S = 0.1  # about 4% of a job's wall time goes to the kernel


class Pace:
    """Sampler of the reference kernel's time; main thread only."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # fields and buffers are allocated once, so a sample never adds to peak RSS
        self.fields = [(rng.random((n, n)), np.empty((2, n - 2, n - 2)), reps)
                       for n, reps in ((64, 16), (256, 1), (512, 1))]
        self.samples = []  # kernel times of the current job
        self.kernel_s = 0.0  # time the current job spent in the kernel
        self.kernel()  # touch every buffer before the first job

    def kernel(self) -> float:
        """One pass of the reference kernel; returns its wall time."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        for u, (gx, gy), reps in self.fields:
            for _ in range(reps):
                np.subtract(u[1:-1, 2:], u[1:-1, :-2], out=gx)
                np.subtract(u[2:, 1:-1], u[:-2, 1:-1], out=gy)
                np.multiply(gx, gx, out=gx)
                np.multiply(gy, gy, out=gy)
                np.add(gx, gy, out=gx)
                np.add(gx, 1.0, out=gx)
                np.sqrt(gx, out=gx)
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        dt = self.kernel()
        self.samples.append(dt)
        self.kernel_s += dt

    def start(self) -> None:
        """Start sampling for one job; every job gets at least one sample."""
        self.samples = [self.kernel()]
        self.kernel_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        # restart interrupted system calls, so file reads never see EINTR
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def pace_factor(samples) -> float:
    """Reference over sampled kernel time: scales wall time to the reference host."""
    return REFERENCE_S / statistics.fmean(samples)
