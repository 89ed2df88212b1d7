"""CPU-speed sampler for the workload processes of the benchmark.

On a shared host the speed of a virtual CPU changes from one tenth of a
second to the next, by 1.5x and more when a neighbour is busy, which moves a
workload's wall time far more than the changes the benchmark must detect.
The sampler times a fixed kernel forty times a second inside the workload
process, on its main thread, by that thread's CPU clock (so waiting for the
GIL or for the scheduler does not count).  The kernel is a small copy of the
package's hottest loop, a schoolbook product of two truncated series mod
11^26, written here so that no change to the package can change it.  The
mean kernel time over a run, divided by REF_S, is how much slower than the
reference speed the process ran; the benchmark divides wall and CPU times by
it.  The garbage collector is paused while the kernel runs, and each sample
times the second of two calls, so neither a collection nor cold caches
count.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

INTERVAL_S = 0.025
REF_S = 80e-6  # one kernel call at the reference speed
_MOD = 11**26
_A = tuple(random.Random(1).randrange(_MOD) for _ in range(32))
_B = tuple(random.Random(2).randrange(_MOD) for _ in range(32))


def kernel() -> tuple[int, ...]:
    a, b, n = _A, _B, len(_A)
    out = [0] * n
    for i in range(n):
        ai = a[i]
        for k in range(n - i):
            out[i + k] += ai * b[k]
    return tuple(c % _MOD for c in out)


class SpeedSampler:
    """Samples the kernel's time from SIGALRM between `start` and `stop`."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
            t = time.thread_time()
            kernel()
            self.samples.append(time.thread_time() - t)
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def slowdown(samples) -> float:
    """Mean slowdown against the reference speed over the sampled interval."""
    return statistics.fmean(samples) / REF_S
