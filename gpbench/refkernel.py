"""Host-speed reference kernel.

The kernel is timed right before and right after every benchmark job, and
sampled while the job runs; the job's CPU time is scaled by
``ref_nominal / ref_measured`` so that a slow phase of a shared host does not
read as a slow program.  ``python3 gpbench/refkernel.py`` recalibrates
``ref_nominal``: it prints the median of measurements taken over 90 s.  Its operation mix
resembles gproxim's scans: calls of a float lambda with tuple arguments,
fresh tuple allocation and dict inserts keyed by float tuples.

This module must not import gproxim: a change to the program must never move
the reference.
"""

from __future__ import annotations

import signal
import time

KERNEL_ITERS = 3000
REPEATS = 3


def kernel(iters: int = KERNEL_ITERS) -> float:
    """One fixed unit of interpreter work; returns a checksum."""
    gauge = lambda a, b, c, d: abs(a - c) + 0.5 * abs(b - d)  # noqa: E731
    table: dict = {}
    acc = 0.0
    x = (0.0, 1.0)
    for i in range(iters):
        y = (x[1] * 0.5 + 0.25, x[0] - 0.125 * (i & 7))
        v = gauge(*x, *y)
        table[(y, i & 511)] = v
        acc += v
        x = y
    return acc + len(table)


def measure() -> float:
    """Thread CPU seconds of one kernel run: the median of REPEATS timed runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.thread_time()
        kernel()
        times.append(time.thread_time() - t0)
    times.sort()
    return times[len(times) // 2]


class Sampler:
    """Times one kernel run every ``interval`` seconds of process CPU time.

    While a job runs, SIGPROF interrupts it at even steps of its own CPU
    time and the handler times the kernel, so the samples weigh the host's
    speed evenly over the whole job, however long.  The handler's CPU time
    is summed in ``spent`` so the caller can take it out of the job's time.

    Timings use the thread CPU clock: while an ITIMER_PROF is armed, Linux
    reads the process CPU clock from a tick-granular group timer.  The
    benchmark's processes have one thread, so the two clocks agree otherwise.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.active = False
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        if not self.active:  # a signal still pending when stop() ran
            return
        t0 = time.thread_time()
        kernel()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        self.samples, self.spent, self.active = [], 0.0, True
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


if __name__ == "__main__":
    import statistics

    # how ref_nominal_s in calibration.json is measured
    samples = []
    end = time.monotonic() + 90.0
    while time.monotonic() < end:
        samples.append(measure())
        time.sleep(0.01)
    print(f"median {statistics.median(samples):.6f} s over {len(samples)} measurements")
