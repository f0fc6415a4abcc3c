"""Host speed sampling, so that times can be scaled to a fixed host speed.

The benchmark runs on a shared host whose speed changes by up to 2x, in
phases from under a second to minutes, with little steal time to show for
it: the same code simply runs slower while other tenants are busy.  A
`Sampler` runs a small fixed reference kernel (interval-like object
arithmetic and small `eigvalsh` calls, the instruction mix of the twistcc
workloads) from a SIGALRM handler every `INTERVAL_S` seconds of wall time,
so between the bytecodes of whatever the benchmark is timing.  The kernel's mean CPU time
over a timed stretch measures the host's speed during that stretch:

    speed = mean kernel CPU time / REF_KERNEL_S

and a time measured in that stretch, less the CPU time of the ticks,
divided by `speed`, is the time the same work takes on a host where the
kernel takes `REF_KERNEL_S`.  That constant only fixes the unit: it is
the kernel's time in a fast phase of the 2-vCPU Xeon guest the bounds were
set on, where the median speed factor over the benchmark's runs was 1.4.
A change of the program
changes its own time and not the kernel's, so it shows in full in scaled
times; a change of the host's speed does not.

Each tick runs the kernel twice and times the second run: the first one
refills the caches the program evicted, so the timed run does not depend
on the program's memory use.  CPU time rather than wall time is sampled,
so that a child process sharing the CPU does not count as a slow host.
Only the main thread is sampled: work the program would hand to other
threads or processes is timed, but not sampled.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
REF_KERNEL_S = 3.0e-4
_M = np.add.outer(np.arange(6.0), np.arange(6.0)) / 6.0 + np.eye(6)


class _Pair:
    """An interval-like pair: the object churn of twistcc's pure-Python parts."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "_Pair") -> "_Pair":
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(p), max(p))


def reference_kernel() -> float:
    """Fixed work: 150 steps of pair arithmetic and 12 small eigvalsh calls."""
    a, b, c = _Pair(0.5, 0.6), _Pair(0.9, 1.0), _Pair(-0.1, 0.1)
    for _ in range(150):
        a = a * b + c
    s = a.hi
    for _ in range(12):
        w = np.linalg.eigvalsh(_M + s * 1e-12)
        s += float(np.dot(w, w))
    return s


def probe_speed(runs: int = 40) -> float:
    """The speed factor from `runs` back-to-back runs of the kernel, after
    one that warms the caches."""
    reference_kernel()
    c0 = time.process_time()
    for _ in range(runs):
        reference_kernel()
    return (time.process_time() - c0) / runs / REF_KERNEL_S


class Sampler:
    """Runs the reference kernel twice every INTERVAL_S while active, and
    keeps the number of ticks, their CPU time, and the CPU time of the
    second, timed, kernel runs.  The first run of a tick warms the caches,
    so that the timed run measures the host and not how much of the cache
    the program between two ticks used."""

    def __init__(self):
        self.samples = 0
        self.cpu = self.kernel = 0.0
        self._saved = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:          # a tick delayed past the next one
            return
        self._busy = True
        c0 = time.process_time()
        reference_kernel()      # refills the caches the program evicted
        c1 = time.process_time()
        reference_kernel()
        c2 = time.process_time()
        self.cpu += c2 - c0
        self.kernel += c2 - c1
        self.samples += 1
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def mark(self) -> tuple[float, float, int]:
        return self.cpu, self.kernel, self.samples


def scaled(wall: float, cpu: float, before: tuple, after: tuple) -> tuple[float, float, float]:
    """(wall, cpu) of a stretch between two `Sampler.mark()`s, less the
    kernel's own time and scaled to REF_KERNEL_S, and the stretch's speed
    factor (1 if the kernel did not run in it)."""
    k_cpu, k_timed, n = (a - b for a, b in zip(after, before))
    speed = k_timed / n / REF_KERNEL_S if n else 1.0
    return (wall - k_cpu) / speed, (cpu - k_cpu) / speed, speed
